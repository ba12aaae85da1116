"""End-to-end integration tests: the example scripts run.  The paper's
figures and propositions are checked in ``test_paper.py``."""

import pytest


class TestExamplesRun:
    """The example scripts are part of the deliverable: they must run."""

    @pytest.mark.parametrize("module_name", [
        "quickstart", "queue_composition", "arbiter", "mini_tla",
        "paxos_certificate",
    ])
    def test_example(self, module_name, capsys):
        import importlib.util
        import pathlib
        import sys

        path = (pathlib.Path(__file__).resolve().parent.parent
                / "examples" / f"{module_name}.py")
        spec = importlib.util.spec_from_file_location(
            f"example_{module_name}", path)
        module = importlib.util.module_from_spec(spec)
        sys.modules[spec.name] = module
        spec.loader.exec_module(module)
        module.main() if module_name != "queue_composition" else module.main(1)
        assert capsys.readouterr().out
