import hashlib
import json
from argparse import Namespace
from pathlib import Path

import pytest

import hesspave.cli as cli
from hesspave.cli import build_parser, main

DATA = Path(__file__).with_name("data")
# sha256 of the reference output of each argv, for outputs too large to keep
DIGESTS_N8_9 = json.loads((DATA / "cells_n8_9_sha256.json").read_text())


def run(capsys, *argv):
    code = main(list(argv))
    out, err = capsys.readouterr()
    return code, out, err


class TestCells:
    def test_json(self, capsys):
        code, out, _ = run(capsys, "cells", "--lambda", "2,2", "--h", "springer")
        assert code == 0
        data = json.loads(out)
        assert data["lambda"] == [2, 2]
        assert data["h"] == "springer"
        assert data["command"] == "cells"
        assert data["count"] == 6
        dims = sorted(c["dim"] for c in data["cells"])
        assert dims == [0, 1, 1, 1, 2, 2]

    def test_json_deterministic(self, capsys):
        _, out1, _ = run(capsys, "cells", "--lambda", "2,2,1", "--h", "0,1,1,2,3")
        _, out2, _ = run(capsys, "cells", "--lambda", "2,2,1", "--h", "0,1,1,2,3")
        assert out1 == out2

    def test_table_builds_no_tableau_and_no_springer_set(self, capsys, monkeypatch):
        # the walk supplies w, R(w) and inv_{lambda,h}(w); the validated
        # Tableau and inv_lambda(w) of each cell are left unbuilt
        from hesspave import paving
        from hesspave.combinatorics import Composition, Tableau, base_filling

        base_filling(Composition([3, 3, 2, 2]))
        calls = []

        def counted(fn):
            def wrapper(*args, **kwargs):
                calls.append(fn.__name__)
                return fn(*args, **kwargs)
            return wrapper

        monkeypatch.setattr(Tableau, "__init__", counted(Tableau.__init__))
        for name in ("_tableau_inversions", "springer_inversions"):
            monkeypatch.setattr(paving, name, counted(getattr(paving, name)))
        code, out, _ = run(capsys, "cells", "--lambda", "3,3,2,2",
                           "--h", "0,0,1,2,3,4,5,6,7,8")
        assert code == 0
        assert json.loads(out)["count"] > 1000
        assert calls == []

    def test_csv(self, capsys):
        code, out, _ = run(
            capsys, "cells", "--lambda", "1,1", "--h", "0,0", "--format", "csv"
        )
        assert code == 0
        lines = out.strip().split("\n")
        assert lines[0] == "w;dim;inversions"
        assert lines[1] == "1,2;0;"
        assert lines[2] == "2,1;1;(2,1)"

    def test_out_file(self, capsys, tmp_path):
        path = tmp_path / "cells.json"
        code, out, _ = run(
            capsys, "cells", "--lambda", "2", "--out", str(path)
        )
        assert code == 0
        assert out == ""
        assert json.loads(path.read_text())["count"] == 1

    def test_out_unopenable_is_input_error(self, capsys, tmp_path):
        path = tmp_path / "missing" / "x.json"
        code, out, err = run(
            capsys, "poincare", "--lambda", "2,1", "--out", str(path)
        )
        assert code == 2
        assert out == ""
        assert err.startswith("input error: --out: ")
        assert not path.parent.exists()

    @pytest.mark.parametrize("fmt", ["json", "csv", "text"])
    @pytest.mark.parametrize("h, stem", [
        ("springer", "cells_222_springer"),
        ("0,1,1,1,3,4", "cells_222_h011134"),
    ])
    def test_output_unchanged(self, capsys, fmt, h, stem):
        # tests/data holds the reference output of each view, byte for byte
        code, out, _ = run(capsys, "cells", "--lambda", "2,2,2", "--h", h, "--format", fmt)
        assert code == 0
        assert out == (DATA / f"{stem}.{fmt}").read_text()

    @pytest.mark.parametrize("argv, digest", DIGESTS_N8_9.items())
    def test_output_unchanged_at_n_8_and_9(self, capsys, argv, digest):
        code, out, _ = run(capsys, *argv.split())
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == digest

    def test_json_of_a_cyclic_payload_still_raises(self, capsys):
        # payloads are built fresh and acyclic, so the encoder skips its
        # cycle markers; a cycle would still end in RecursionError
        payload = {"cells": []}
        payload["cells"].append(payload)
        args = Namespace(format="json", out=None)
        with pytest.raises(RecursionError):
            cli._emit(args, payload, list, str)
        assert capsys.readouterr().out == ""


class TestPoincare:
    def test_known_coefficients(self, capsys):
        code, out, _ = run(capsys, "poincare", "--lambda", "2,2,2")
        assert code == 0
        data = json.loads(out)
        assert data["coefficients"] == [1, 5, 14, 24, 25, 16, 5]
        assert data["total_cells"] == 90
        assert data["empty"] is False

    def test_empty(self, capsys):
        code, out, _ = run(capsys, "poincare", "--lambda", "2", "--h", "0,0")
        assert code == 0
        data = json.loads(out)
        assert data["empty"] is True
        assert data["coefficients"] == []

    def test_text(self, capsys):
        code, out, _ = run(
            capsys, "poincare", "--lambda", "1,1", "--format", "text"
        )
        assert code == 0
        assert "P(q) = 1 + 1*q^1" in out


class TestR0:
    def test_tableau(self, capsys):
        code, out, _ = run(
            capsys, "r0", "--lambda", "4,4,3,1", "--h", "0,0,0,1,2,3,4,5,6,7,8,9"
        )
        assert code == 0
        data = json.loads(out)
        assert data["r0"] == [[3, 6, 9, 12], [2, 5, 8, 11], [4, 7, 10], [1]]
        assert data["unique_zero_cell"] is True

    def test_empty(self, capsys):
        code, out, _ = run(capsys, "r0", "--lambda", "2", "--h", "0,0", "--format", "text")
        assert code == 0
        assert out.strip() == "EMPTY"


class TestVerify:
    def test_pass(self, capsys):
        code, out, _ = run(capsys, "verify", "--lambda", "2,2", "--q", "2")
        assert code == 0
        data = json.loads(out)
        assert data["passed"] is True

    def test_text_lines(self, capsys):
        code, out, _ = run(
            capsys, "verify", "--lambda", "2,1", "--h", "0,1,1", "--format", "text"
        )
        assert code == 0
        assert all(line.startswith("PASS") for line in out.strip().split("\n"))

    def test_budget_exit(self, capsys):
        code, out, _ = run(
            capsys, "verify", "--lambda", "2,2", "--q", "2", "--budget-bits", "1"
        )
        assert code == 3
        assert json.loads(out)["partial"] is True

    @pytest.mark.parametrize("stem, args, expected_code", [
        ("verify_22_springer_q2_seed0", ["--lambda", "2,2", "--q", "2", "--seed", "0"], 0),
        ("verify_221_h00123_q2", ["--lambda", "2,2,1", "--h", "0,0,1,2,3", "--q", "2"], 0),
        ("verify_21_h011_q3", ["--lambda", "2,1", "--h", "0,1,1", "--q", "3"], 0),
        ("verify_2_h00_q2", ["--lambda", "2", "--h", "0,0", "--q", "2"], 0),
        ("verify_22_springer_q2_budget3",
         ["--lambda", "2,2", "--q", "2", "--budget-bits", "3"], 3),
        # the symbolic suite at n = 5
        ("verify_221_springer_q2_seed0", ["--lambda", "2,2,1", "--q", "2", "--seed", "0"], 0),
        # the image and zero-structure checks on all 24 cells of the flag variety
        ("verify_1111_springer_q2_seed0",
         ["--lambda", "1,1,1,1", "--q", "2", "--seed", "0"], 0),
    ])
    def test_output_unchanged(self, capsys, stem, args, expected_code):
        # tests/data holds the reference JSON, byte for byte
        code, out, _ = run(capsys, "verify", *args)
        assert code == expected_code
        assert out == (DATA / f"{stem}.json").read_text()


class TestGenericFlag:
    def test_paper_example(self, capsys):
        code, out, _ = run(
            capsys,
            "generic-flag",
            "--lambda", "2,2,2",
            "--h", "0,0,1,1,3,4",
            "--w", "3,6,2,1,5,4",
        )
        assert code == 0
        data = json.loads(out)
        assert data["zeroed"] == [[1, 2]]
        assert len(data["columns"]) == 6

    def test_requires_w(self, capsys):
        code, _, err = run(capsys, "generic-flag", "--lambda", "2,2")
        assert code == 2
        assert "--w is required" in err

    def test_rejects_non_row_strict(self, capsys):
        code, _, err = run(
            capsys, "generic-flag", "--lambda", "2,2", "--w", "3,1,4,2"
        )
        assert code == 2
        assert "row-strict" in err


class TestCount:
    def test_match(self, capsys):
        code, out, _ = run(capsys, "count", "--lambda", "1,1", "--q", "2")
        assert code == 0
        data = json.loads(out)
        assert data["total"] == 3
        assert data["match"] is True

    def test_requires_q(self, capsys):
        code, _, err = run(capsys, "count", "--lambda", "1,1")
        assert code == 2
        assert "--q is required" in err

    def test_budget_exit(self, capsys):
        code, _, err = run(
            capsys, "count", "--lambda", "2,2", "--q", "2", "--budget-bits", "2"
        )
        assert code == 3
        assert "budget exceeded" in err

    @pytest.mark.parametrize("stem, args", [
        ("count_221_h00123_q3.json", ["--lambda", "2,2,1", "--h", "0,0,1,2,3", "--q", "3"]),
        ("count_31_springer_q5.csv", ["--lambda", "3,1", "--q", "5", "--format", "csv"]),
        ("count_222_h011134_q2.json", ["--lambda", "2,2,2", "--h", "0,1,1,1,3,4", "--q", "2"]),
    ])
    def test_output_unchanged(self, capsys, stem, args):
        # tests/data holds the reference output, byte for byte
        code, out, _ = run(capsys, "count", *args)
        assert code == 0
        assert out == (DATA / stem).read_text()

    def test_readme_example(self, capsys):
        # 26.4 bits of flags, so the default 24-bit budget is not enough
        code, out, _ = run(
            capsys, "count", "--lambda", "2,2,2", "--h", "0,1,1,1,3,4", "--q", "3",
            "--budget-bits", "27",
        )
        assert code == 0
        data = json.loads(out)
        assert data["match"] is True
        assert data["total"] == data["predicted"]


class TestProfile:
    def test_values(self, capsys):
        code, out, _ = run(
            capsys,
            "profile",
            "--lambda", "4,4,3,1",
            "--h", "0,0,1,2,3,4,5,6,7,8,9,10",
            "--w", ",".join(str(v) for v in _w_of_paper_grid()),
        )
        assert code == 0
        data = json.loads(out)
        entries = {(e["i"], e["j"]): e["count"] for e in data["profile"]}
        assert entries[(1, 1)] == 2
        assert entries[(1, 2)] == 1
        assert (3, 3) not in entries

    def test_non_h_strict_rejected(self, capsys):
        code, _, err = run(
            capsys, "profile", "--lambda", "2", "--h", "0,0", "--w", "1,2"
        )
        assert code == 2
        assert "h-strict" in err


def _w_of_paper_grid():
    from hesspave.combinatorics import Tableau, permutation_of_tableau

    t = Tableau([[2, 4, 8, 10], [1, 5, 7, 11], [3, 9, 12], [6]])
    return permutation_of_tableau(t).word


class TestInputErrors:
    def test_bad_lambda(self, capsys):
        code, _, err = run(capsys, "cells", "--lambda", "2,x")
        assert code == 2
        assert "--lambda" in err

    def test_h_all_violations_listed(self, capsys):
        code, _, err = run(capsys, "cells", "--lambda", "1,1,1", "--h", "0,2,1")
        assert code == 2
        assert "h(2)=2" in err and "h(3)=1" in err

    def test_h_length_mismatch(self, capsys):
        code, _, err = run(capsys, "cells", "--lambda", "2,2", "--h", "0,1")
        assert code == 2
        assert "n=4" in err

    def test_bad_w(self, capsys):
        code, _, err = run(capsys, "profile", "--lambda", "1,1", "--w", "1,1")
        assert code == 2
        assert "--w" in err

    @pytest.mark.parametrize("command", ["profile", "generic-flag"])
    def test_w_length_mismatch(self, capsys, command):
        code, _, err = run(capsys, command, "--lambda", "2,2", "--w", "1,2,3")
        assert code == 2
        assert err.startswith("input error:")
        assert "--w has 3 values but n=4" in err

    @pytest.mark.parametrize("argv", [
        ["cells", "--lambda", "2,,1"],
        ["poincare", "--lambda", "2,1,"],
        ["cells", "--lambda", "1,1,1", "--h", "0,0,1,,"],
        ["poincare", "--lambda", "1,1,1", "--h", ",0,1"],
        ["profile", "--lambda", "2,1", "--w", "3,,1,2"],
        ["generic-flag", "--lambda", "2,1", "--w", "1,2,3,"],
    ])
    def test_empty_list_token(self, capsys, argv):
        flag, value = argv[-2:]
        code, out, err = run(capsys, *argv)
        assert code == 2
        assert out == ""
        assert err == (f"input error: {flag} must be a comma-separated list of "
                       f"integers, got {value!r}\n")

    @pytest.mark.parametrize("command, extra", [
        ("verify", ["--q", "2"]),
        ("count", ["--q", "2"]),
        ("poincare", []),
    ])
    def test_negative_seed(self, capsys, command, extra):
        argv = [command, "--lambda", "2,1", *extra, "--seed", "-1"]
        if command != "verify":
            # only verify reads a seed; the others' parsers reject the flag
            with pytest.raises(SystemExit) as exc:
                main(argv)
            assert exc.value.code == 2
            return
        code, out, err = run(capsys, *argv)
        assert code == 2
        assert out == ""
        assert err == "input error: --seed must be >= 0\n"

    def test_bad_budget(self, capsys):
        for command in ("count", "verify"):
            code, out, err = run(capsys, command, "--lambda", "2", "--q", "2",
                                 "--budget-bits", "0")
            assert code == 2
            assert out == ""
            assert err == "input error: --budget-bits must be >= 1\n"

    def test_every_violated_search_flag_listed(self, capsys):
        code, _, err = run(capsys, "verify", "--lambda", "2", "--q", "4", "--budget-bits",
                           "0", "--seed", "-1", "--workers", "0")
        assert code == 2
        assert err == ("input error: --budget-bits must be >= 1; --seed must be >= 0; "
                       "--workers must be >= 1; --q: q must be a prime <= 13, got 4\n")

    @pytest.mark.parametrize("command", ["count", "verify"])
    @pytest.mark.parametrize("q", ["0", "1", "4", "17"])
    def test_bad_q(self, capsys, command, q):
        code, out, err = run(capsys, command, "--lambda", "2,1", "--q", q)
        assert code == 2
        assert out == ""
        assert err == f"input error: --q: q must be a prime <= 13, got {q}\n"

    @pytest.mark.parametrize("workers", ["0", "-2"])
    def test_bad_workers_flag(self, capsys, workers):
        code, _, err = run(capsys, "count", "--lambda", "2,1", "--q", "2", "--workers", workers)
        assert code == 2
        assert err == "input error: --workers must be >= 1\n"


class TestParser:
    def test_built_once(self):
        assert build_parser() is build_parser()

    def test_workers_flag_reaches_count(self, capsys, monkeypatch):
        from hesspave import oracle

        seen = []

        def fake_count(lam, h, q, budget_bits, workers):
            seen.append(workers)
            raise cli.BudgetExceededError("stop")

        monkeypatch.setattr(oracle, "variety_point_count", fake_count)
        argv = ["count", "--lambda", "2,1", "--q", "2"]
        assert run(capsys, *argv)[0] == 3
        assert run(capsys, *argv, "--workers", "4")[0] == 3
        assert seen == [1, 4]

    def test_flags_per_command(self):
        # every command reads --lambda, --h, --format and --out; the F_q
        # search flags belong to count and verify, --seed to verify alone;
        # cells and poincare accept --workers without reading it
        dests = {"--lambda": "lam", "--h": "h", "--format": "format", "--out": "out",
                 "--q": "q", "--budget-bits": "budget_bits", "--workers": "workers",
                 "--seed": "seed", "--w": "w"}
        search = {"--q", "--budget-bits", "--workers"}
        extra = {
            "cells": {"--workers"},
            "poincare": {"--workers"},
            "r0": set(),
            "verify": search | {"--seed"},
            "generic-flag": {"--w"},
            "count": search,
            "profile": {"--w"},
        }
        parser = build_parser()
        for command, flags in extra.items():
            accepted = {"--lambda", "--h", "--format", "--out"} | flags
            ns = parser.parse_args([command, "--lambda", "2,1"])
            assert set(vars(ns)) == {"command", "func"} | {dests[f] for f in accepted}
            for flag in set(dests) - accepted:
                with pytest.raises(SystemExit) as exc:
                    main([command, "--lambda", "2,1", flag, "1"])
                assert exc.value.code == 2, (command, flag)

    def test_workers_env_is_not_read(self, capsys, monkeypatch):
        runs = [
            ["cells", "--lambda", "2,1"],
            ["poincare", "--lambda", "2,1"],
            ["r0", "--lambda", "2,1"],
            ["verify", "--lambda", "2,1", "--q", "2"],
            ["generic-flag", "--lambda", "2,1", "--w", "2,3,1"],
            ["count", "--lambda", "2,1", "--q", "2"],
            ["profile", "--lambda", "2,1", "--w", "2,3,1"],
        ]
        plain = [run(capsys, *argv) for argv in runs]
        monkeypatch.setenv("HESSPAVE_WORKERS", "many")
        assert [run(capsys, *argv) for argv in runs] == plain
        assert all(code == 0 for code, _, _ in plain)

    def test_benchmark_argv_parse(self):
        # perfbench/workloads.py imports nothing from hesspave; every argv it
        # builds must stay accepted, since its digests are keyed by argv
        import importlib.util

        path = Path(__file__).resolve().parent.parent / "perfbench" / "workloads.py"
        spec = importlib.util.spec_from_file_location("perfbench_workloads", path)
        workloads = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(workloads)
        parser = build_parser()
        argvs = [op["argv"] for workload in workloads.WORKLOADS
                 for seed in range(5) for op in workloads.build_ops(workload, seed)]
        assert argvs
        for argv in argvs:
            assert parser.parse_args(argv).command == argv[0]


def _fresh_python(code: str) -> dict:
    """Run `code` in a new interpreter that imports hesspave from this tree;
    it prints one JSON value, which is returned."""
    import os
    import subprocess
    import sys

    import hesspave

    src = str(Path(hesspave.__file__).resolve().parent.parent)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, env=env, check=True)
    return json.loads(proc.stdout)


class TestColdStart:
    def test_exact_commands_never_load_numpy(self):
        # numpy (through the F_q layer) is a cost of count and verify only
        loaded = _fresh_python("""
import contextlib, io, json, sys
from hesspave.cli import main
runs = [
    ["cells", "--lambda", "2,2,1"],
    ["poincare", "--lambda", "2,2,1"],
    ["r0", "--lambda", "2,2,1", "--h", "0,1,1,2,3"],
    ["profile", "--lambda", "2,1", "--w", "2,3,1"],
    ["generic-flag", "--lambda", "2,1", "--w", "2,3,1"],
    ["count", "--lambda", "2,1", "--q", "2"],
]
seen = {}
for argv in runs:
    with contextlib.redirect_stdout(io.StringIO()):
        code = main(argv)
    seen[argv[0]] = [code, "numpy" in sys.modules, "hesspave.oracle" in sys.modules]
print(json.dumps(seen))
""")
        for command in ("cells", "poincare", "r0", "profile", "generic-flag"):
            assert loaded[command] == [0, False, False], command
        assert loaded["count"] == [0, True, True]

    def test_package_names_resolve_on_first_access(self):
        seen = _fresh_python("""
import json, sys
import hesspave
from hesspave import cli
before = "numpy" in sys.modules
try:
    hesspave.no_such_name
    unknown = "resolved"
except AttributeError:
    unknown = "numpy" in sys.modules
from hesspave.oracle import variety_point_count
from hesspave.verify import run_verification
print(json.dumps({
    "before": before,
    "unknown": unknown,
    "same": [hesspave.variety_point_count is variety_point_count,
             hesspave.run_verification is run_verification],
    "all": sorted(n for n in hesspave._FQ_NAMES if getattr(hesspave, n, None) is None),
}))
""")
        assert seen == {"before": False, "unknown": False, "same": [True, True], "all": []}


def test_console_script_installed():
    import shutil
    import subprocess

    exe = shutil.which("hesspave")
    if exe is None:
        pytest.skip("console script not on PATH")
    proc = subprocess.run(
        [exe, "poincare", "--lambda", "1,1"], capture_output=True, text=True
    )
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["coefficients"] == [1, 1]
