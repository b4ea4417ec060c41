"""The package surface, the import graph of a CLI process, and the CLI's OpenBLAS thread default."""

import importlib
import os
import subprocess
import sys
import tomllib
from pathlib import Path
from unittest import mock

import pytest

import choiwit
from choiwit import maps, max_ent_projector, state_file_text

#: The public names, in the order __all__ gives them.
PUBLIC = [
    "BoundaryCaseError", "Certificate", "CertificateDiagnostics", "ChoiwitError", "DensityMatrix",
    "FamilyPoint", "InvalidStateError", "MapParams", "NonpositiveTError", "NotHermitianError",
    "OffFamilyError", "OutOfRangeError", "PositivitySearchResult", "ProductVectorPair", "SpanMatrix",
    "Verdict", "WitnessMatrix", "ZeroExpectations", "certify", "certify_many", "conj_vec",
    "det_closed_form", "detect", "expectation", "family_from_alpha", "family_violation", "herm_eig_min",
    "identity_residuals", "is_positive_predicate", "kron_vec", "lu_det", "max_ent_projector",
    "on_family_check", "parse_state_file", "parse_state_text", "partial_transpose_second", "phi_apply",
    "positivity_search", "ppt_state", "product_vectors", "rank_with_tol", "separable_sample_check",
    "span_matrix", "state_file_text", "t_param", "witness_from_map", "witness_matrix",
    "zero_expectation_check",
]


def _python(*argv: str, env: dict | None = None) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, *argv], capture_output=True, text=True, env=env)


def _without_threads() -> dict:
    return {k: v for k, v in os.environ.items() if k != "OPENBLAS_NUM_THREADS"}


def test_a_detect_process_never_imports_the_certificate_kernel(tmp_path):
    state = tmp_path / "p_plus.txt"
    state.write_text(state_file_text(max_ent_projector()))
    proc = _python("-X", "importtime", "-m", "choiwit", "detect", "0", "1", "1", str(state))
    assert (proc.returncode, proc.stdout) == (
        0, "tr(W rho) = -0.33333333333299997\nstate detected (negative expectation)\n"
    )
    imported = {line.rsplit("|", 1)[-1].strip() for line in proc.stderr.splitlines() if line.startswith("import time:")}
    assert {"choiwit.cli", "choiwit.witness"} <= imported
    assert "choiwit.optimality" not in imported


def test_importing_the_package_loads_no_submodule_and_no_numpy():
    script = (
        "import sys\n"
        "import choiwit\n"
        "print(sorted(m for m in sys.modules if m.split('.')[0] in ('choiwit', 'numpy')))\n"
    )
    proc = _python("-c", script)
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, "['choiwit']\n", "")


def test_all_lists_the_public_names_in_order():
    assert choiwit.__all__ == PUBLIC


def test_each_name_is_the_object_of_its_defining_module():
    for name in PUBLIC:
        obj = getattr(choiwit, name)
        assert obj.__module__.startswith("choiwit."), name
        assert getattr(importlib.import_module(obj.__module__), name) is obj, name


def test_a_patch_to_the_defining_module_shows_through_the_package(monkeypatch):
    original = choiwit.t_param
    monkeypatch.setattr(maps, "t_param", lambda p: 0.5)
    assert choiwit.t_param(None) == 0.5
    monkeypatch.undo()
    assert choiwit.t_param is original is maps.t_param


def test_dir_and_star_import_cover_every_public_name():
    assert set(PUBLIC) <= set(dir(choiwit))
    namespace = {}
    exec("from choiwit import *", namespace)
    assert sorted(set(namespace) - {"__builtins__"}) == PUBLIC


def test_an_unknown_name_raises_the_standard_attribute_error():
    with pytest.raises(AttributeError) as info:
        choiwit.nope
    assert str(info.value) == "module 'choiwit' has no attribute 'nope'"
    assert choiwit.__version__ == "0.1.0"


def test_the_entry_point_defaults_to_one_openblas_thread_and_keeps_a_set_value(tmp_path):
    entry = importlib.import_module("choiwit.__main__")
    for preset, expected in ((None, "1"), ("2", "2")):
        with mock.patch.dict(os.environ):
            os.environ.pop("OPENBLAS_NUM_THREADS", None)
            if preset is not None:
                os.environ["OPENBLAS_NUM_THREADS"] = preset
            assert entry.main(["vectors", "4", "--out", str(tmp_path / "vectors.txt")]) == 0
            assert os.environ["OPENBLAS_NUM_THREADS"] == expected


def test_the_library_leaves_the_openblas_thread_count_unset():
    script = "import os, choiwit, choiwit.cli\nchoiwit.certify\nprint(os.environ.get('OPENBLAS_NUM_THREADS'))\n"
    proc = _python("-c", script, env=_without_threads())
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, "None\n", "")


def test_the_console_script_target_imports_without_numpy():
    pyproject = tomllib.loads((Path(__file__).resolve().parent.parent / "pyproject.toml").read_text())
    module, _, function = pyproject["project"]["scripts"]["choiwit"].partition(":")
    script = (
        "import importlib, sys\n"
        f"callable(getattr(importlib.import_module({module!r}), {function!r})) or sys.exit(1)\n"
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'numpy'))\n"
    )
    proc = _python("-c", script, env=_without_threads())
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, "[]\n", "")
