"""Import-cost pin: ``import repro`` must stay cheap.

The package facade lazy-loads the heavy ``repro.analysis`` surface via
PEP 562 ``__getattr__``; these tests run a fresh interpreter so the
current process's already-imported modules cannot mask a regression.
"""

import json
import subprocess
import sys


def _fresh_python(code):
    proc = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True,
        text=True,
        check=True,
    )
    return proc.stdout


class TestLazyFacade:
    def test_import_repro_does_not_pull_analysis(self):
        out = _fresh_python(
            "import sys, json, repro;"
            "print(json.dumps([m for m in sys.modules"
            " if m.startswith('repro.analysis')]))"
        )
        loaded = json.loads(out)
        assert loaded == [], (
            f"import repro eagerly loaded {loaded}; the analysis surface "
            "must stay behind the PEP 562 facade"
        )

    def test_import_repro_does_not_pull_charts(self):
        out = _fresh_python(
            "import sys, repro;"
            "print('repro.analysis.charts' in sys.modules)"
        )
        assert out.strip() == "False"

    def test_lazy_names_resolve_and_load_analysis(self):
        out = _fresh_python(
            "import sys, repro;"
            "fn = repro.sweep_use_case;"
            "print(fn.__module__, 'repro.analysis' in sys.modules)"
        )
        module, loaded = out.split()
        assert module == "repro.analysis.sweep"
        assert loaded == "True"

    def test_every_public_name_resolves(self):
        _fresh_python(
            "import repro;"
            "[getattr(repro, name) for name in repro.__all__]"
        )

    def test_unknown_attribute_raises(self):
        out = _fresh_python(
            "import repro\n"
            "try:\n"
            "    repro.no_such_name\n"
            "except AttributeError as exc:\n"
            "    print('AttributeError', 'no_such_name' in str(exc))\n"
        )
        assert out.strip() == "AttributeError True"

    def test_dir_advertises_lazy_names(self):
        out = _fresh_python(
            "import repro;"
            "d = dir(repro);"
            "print('run_fig3' in d, 'SystemConfig' in d)"
        )
        assert out.strip() == "True True"

    def test_import_cli_does_not_pull_numpy(self):
        # numpy is imported on first use (the batch engine, the
        # interleaver's vectorised split), never by the CLI import.
        out = _fresh_python(
            "import sys, repro.cli;"
            "print('numpy' in sys.modules)"
        )
        assert out.strip() == "False"
