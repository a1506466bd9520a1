import hashlib
import json
import random
import time
import tracemalloc
from argparse import Namespace
from pathlib import Path

import pytest

import hesspave.cli as cli
from hesspave import exactla, paving
from hesspave.cli import build_parser, main
from hesspave.combinatorics import Composition, HessenbergFunction
from hesspave.paving import PoincareData
from proof_reference import (
    all_hessenberg_functions,
    cells_json,
    compositions,
    evaluate,
    partitions,
    springer_line_count,
)

DATA = Path(__file__).with_name("data")
# sha256 of the reference output of each argv, for outputs too large to keep
DIGESTS_N8_9 = json.loads((DATA / "cells_n8_9_sha256.json").read_text())
# the same for cells --format json at n = 10
DIGESTS_N10 = json.loads((DATA / "cells_n10_sha256.json").read_text())
# verify --q 2 --seed 0 on every partition of n <= 5 with the Springer h, and
# one non-Springer h per n >= 2: the whole symbolic sweep; and the same at
# --q 3 for n <= 4, where the F_q image and zero-structure checks run
DIGESTS_VERIFY = json.loads((DATA / "verify_n4_5_sha256.json").read_text())
# count --q 2 on (3,3,3) and (5,5), recorded while each point was still
# tallied by the rank of w in a table of all n! permutations
DIGESTS_COUNT = json.loads((DATA / "count_n9_10_sha256.json").read_text())
# generic-flag in every format for every row-strict w of (2,2,2) and (3,2,1),
# under the Springer h and two others, recorded while the command still cut
# D_w by substituting 0 into the full generic flag
DIGESTS_GENERIC_FLAG = json.loads((DATA / "generic_flag_sha256.json").read_text())
# profile in every format for every cell of (3,2,1) under the Springer h and
# 0,1,1,2,3,4, (2,2,2) under 0,1,1,1,3,4, (3,3,1) under the Springer h and
# (2,3,2) under 0,0,1,2,3,4,5, recorded while profiles were still a
# hand-written class with one zero entry per column pair
DIGESTS_PROFILE = json.loads((DATA / "profile_sha256.json").read_text())
# the benchmark's own digests of the stdout of each op it checks, read only:
# output drift fails here before the benchmark reports it
DIGESTS_BENCH = json.loads(
    (Path(__file__).parents[1] / "perfbench" / "digests.json").read_text()
)


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

    def test_table_builds_no_view_per_cell(self, capsys, monkeypatch):
        # `cells` prints each cell's word, rows and pairs; no cell builds
        # its Permutation or Tableau
        from hesspave.combinatorics import Composition, Permutation, Tableau, base_filling

        for parts in ([3, 2, 2, 1], [3, 3, 2, 2]):
            base_filling(Composition(parts))
        built = []
        for cls in (Permutation, Tableau):
            init = cls.__init__

            def counting(self, *args, init=init, name=cls.__name__):
                built.append(name)
                init(self, *args)

            monkeypatch.setattr(cls, "__init__", counting)
        for argv in (["--lambda", "3,2,2,1"], ["--lambda", "3,3,2,2", "--h", "0,0,1,2,3,4,5,6,7,8"]):
            code, out, _ = run(capsys, "cells", *argv, "--format", "json")
            assert code == 0
            assert json.loads(out)["count"] > 1000
        assert built == []

    def test_one_cell_table_per_run(self, capsys, monkeypatch):
        # `cells` builds its table through the name `enumerate_cells` that
        # cli binds, once, so a wrapper put on that name (as the benchmark's
        # tracer does) sees the whole walk of the command
        build = cli.enumerate_cells
        calls = []

        def counted(*args):
            calls.append(args)
            return build(*args)

        monkeypatch.setattr(cli, "enumerate_cells", counted)
        code, out, _ = run(capsys, "cells", "--lambda", "2,2,1")
        assert code == 0
        assert len(calls) == 1
        assert json.loads(out)["count"] == len(build(*calls[0])) == 30

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

    @pytest.mark.parametrize("argv, digest", DIGESTS_N10.items())
    def test_output_unchanged_at_n_10(self, capsys, argv, digest):
        code, out, _ = run(capsys, *argv.split())
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == digest

    def test_json_equals_dict_form_on_every_composition_to_5(self, capsys):
        # the writer splices fragments; tests/proof_reference.py holds the
        # dict-per-cell form that json.dumps encodes
        checked = 0
        for n in range(1, 6):
            hs = list(all_hessenberg_functions(n))
            for parts in compositions(n):
                lam = ",".join(map(str, parts))
                for h in hs:
                    h_arg = ",".join(map(str, h.values))
                    code, out, _ = run(capsys, "cells", "--lambda", lam, "--h", h_arg)
                    assert code == 0
                    assert out == cells_json(Composition(parts), h, h_arg), (parts, h)
                    checked += 1
        assert checked == 809

    def test_json_equals_dict_form_on_partitions_of_6(self, capsys):
        hs = list(all_hessenberg_functions(6))
        h_args = ["springer"] + [
            ",".join(map(str, h.values)) for h in random.Random(0).sample(hs, 20)
        ]
        for parts in partitions(6):
            lam = ",".join(map(str, parts))
            for h_arg in h_args:
                code, out, _ = run(capsys, "cells", "--lambda", lam, "--h", h_arg)
                assert code == 0
                h = cli._parse_h(h_arg, 6)
                assert out == cells_json(Composition(parts), h, h_arg), (parts, h_arg)

    @pytest.mark.parametrize("lam, h_arg, count", [
        ("2", "0,0", 0),  # empty: a row needs its left entry <= h of its right
        ("1", "springer", 1),
        ("2,1", "0,1,1", 2),
    ])
    def test_json_equals_dict_form_at_the_edges(self, capsys, lam, h_arg, count):
        code, out, _ = run(capsys, "cells", "--lambda", lam, "--h", h_arg)
        assert code == 0
        parts = Composition([int(p) for p in lam.split(",")])
        assert out == cells_json(parts, cli._parse_h(h_arg, parts.n), h_arg)
        assert json.loads(out)["count"] == count
        if not count:
            assert out.startswith('{"cells":[],')

    def test_one_row_of_many_boxes_allocates_no_pair_fragments(self, capsys):
        # the writer encodes a pair when a cell first reads it: one row has
        # no inversions, so no pair text is made (a full table at n = 3000
        # is 4.5M strings)
        tracemalloc.start()
        try:
            code = main(["cells", "--lambda", "3000"])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        out = capsys.readouterr().out
        assert code == 0
        assert json.loads(out)["cells"] == [{
            "dim": 0, "inversions": [], "tableau": [list(range(1, 3001))],
            "w": list(range(1, 3001)),
        }]
        assert peak < 20 * 2**20

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

    @pytest.mark.parametrize("argv, digest", DIGESTS_VERIFY.items())
    def test_output_unchanged_up_to_n_5(self, capsys, argv, digest):
        code, out, _ = run(capsys, *argv.split())
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == digest


@pytest.mark.parametrize("key, digest", DIGESTS_BENCH.items())
def test_benchmark_digests(capsys, key, digest):
    code, out, _ = run(capsys, *key.split())
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest


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

    @pytest.mark.parametrize("argv, digest", DIGESTS_GENERIC_FLAG.items())
    def test_output_unchanged(self, capsys, argv, digest):
        code, out, _ = run(capsys, *argv.split())
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == digest

    @pytest.mark.parametrize("fmt", ["json", "csv", "text"])
    def test_computes_the_hessenberg_set_once(self, capsys, monkeypatch, fmt):
        # inv_{lambda,h}(w) is computed once and handed to both the zeroed
        # keys and the flag; the one other call is inv_lambda(w), which the
        # zeroed keys read through springer_inversions
        orig = paving.hessenberg_inversions
        calls = []

        def counted(w, lam, h):
            calls.append(h)
            return orig(w, lam, h)

        for mod in (cli, exactla, paving):
            if getattr(mod, "hessenberg_inversions", None) is orig:
                monkeypatch.setattr(mod, "hessenberg_inversions", counted)
        code, _, _ = run(capsys, "generic-flag", "--lambda", "2,2,2", "--h", "0,0,1,1,3,4",
                         "--w", "3,6,2,1,5,4", "--format", fmt)
        assert code == 0
        assert calls == [HessenbergFunction([0, 0, 1, 1, 3, 4]), HessenbergFunction.springer(6)]

    def test_requires_w(self, capsys):
        code, _, err = run(capsys, "generic-flag", "--lambda", "2,2")
        assert code == 2
        assert "--w is required" in err

    def test_rejects_non_row_strict(self, capsys):
        code, out, err = run(
            capsys, "generic-flag", "--lambda", "2,2", "--w", "3,1,4,2"
        )
        assert (code, out, err) == (
            2, "", "input error: R(w) is not row-strict for w=[3,1,4,2]\n")


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

    def test_far_over_budget_exits_fast(self, capsys):
        # |Fl_4000(F_2)| has about 8 million bits, which the budget check
        # refuses without multiplying them all out
        start = time.process_time()
        code, out, err = run(capsys, "count", "--lambda", "4000", "--q", "2")
        assert time.process_time() - start < 1.0
        assert (code, out) == (3, "")
        assert err == "budget exceeded: enumeration needs 8001998.2 bits of work, budget is 24\n"

    def test_budget_caught_by_count(self, capsys, monkeypatch):
        # `count` reports the budget itself, with the line and exit code
        # that `main` printed when it caught the error
        code, out, err = run(capsys, "count", "--lambda", "2,2,2", "--q", "3")
        assert (code, out) == (3, "")
        assert err == "budget exceeded: enumeration needs 26.4 bits of work, budget is 24\n"
        # and before X_lambda is built, which at n = 20,000 takes 3.2 GB
        import hesspave.oracle

        def refuse(lam):
            raise AssertionError("X_lambda built over budget")

        monkeypatch.setattr(hesspave.oracle, "nilpotent_residues", refuse)
        code, out, err = run(capsys, "count", "--lambda", "20000", "--q", "2")
        assert (code, out) == (3, "")
        assert err.startswith("budget exceeded: enumeration needs ")

    def test_huge_budget_passes_at_once(self, capsys):
        # the check never forms 2^budget_bits, so a 10^12-bit budget costs
        # nothing and the count is the one of the default budget
        _, expected, _ = run(capsys, "count", "--lambda", "2,1", "--q", "2")
        start = time.process_time()
        code, out, err = run(
            capsys, "count", "--lambda", "2,1", "--q", "2", "--budget-bits", str(10**12)
        )
        assert time.process_time() - start < 1.0
        assert (code, out, err) == (0, expected, "")

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

    @pytest.mark.parametrize("argv, digest", DIGESTS_COUNT.items())
    def test_output_unchanged_at_n_9_and_10(self, capsys, argv, digest):
        code, out, _ = run(capsys, *argv.split())
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == digest
        # Springer h: the total is |B_mu(F_2)| by the line recursion, which
        # no paving enters
        words = argv.split()
        assert "--h" not in words
        parts = tuple(sorted(map(int, words[words.index("--lambda") + 1].split(",")),
                             reverse=True))
        total = evaluate(PoincareData(springer_line_count(parts)), 2)
        assert json.loads(out)["total"] == total

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

    def test_output_unchanged(self, capsys):
        assert len(DIGESTS_PROFILE) == 831
        changed = []
        for argv, digest in DIGESTS_PROFILE.items():
            code, out, _ = run(capsys, *argv.split())
            if code != 0 or hashlib.sha256(out.encode()).hexdigest() != digest:
                changed.append(argv)
        assert changed == []


def _w_of_paper_grid():
    from hesspave.combinatorics import Tableau, permutation_of_tableau

    t = Tableau([[2, 4, 8, 10], [1, 5, 7, 11], [3, 9, 12], [6]])
    return permutation_of_tableau(t).word


class TestInputErrors:
    def test_bad_lambda(self, capsys):
        code, _, err = run(capsys, "cells", "--lambda", "2,x")
        assert code == 2
        assert "--lambda" in err

    @pytest.mark.parametrize("command", [
        "cells", "poincare", "r0", "verify", "generic-flag", "count", "profile"])
    @pytest.mark.parametrize("value", ["99999999999999999999", "9223372036854775807,1"])
    def test_lambda_past_sys_maxsize(self, capsys, command, value):
        # n above sys.maxsize is refused before anything is sized by it
        code, out, err = run(capsys, command, "--lambda", value)
        assert code == 2
        assert out == ""
        assert err.startswith("input error: --lambda has ")
        assert err.count("\n") == 1 and "Traceback" not in err

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
                           "0", "--seed", "-1")
        assert code == 2
        assert err == ("input error: --budget-bits must be >= 1; --seed must be >= 0; "
                       "--q: q must be a prime <= 13, got 4\n")

    @pytest.mark.parametrize("command", ["count", "verify"])
    @pytest.mark.parametrize("q", ["0", "1", "4", "17"])
    def test_bad_q(self, capsys, command, q):
        code, out, err = run(capsys, command, "--lambda", "2,1", "--q", q)
        assert code == 2
        assert out == ""
        assert err == f"input error: --q: q must be a prime <= 13, got {q}\n"


class TestResourceLimits:
    """Running out of stack or memory is one stderr line and exit 3."""

    def test_recursion_limit_exits_3(self, capsys, monkeypatch):
        def too_deep(lam, h):
            raise RecursionError("maximum recursion depth exceeded")

        monkeypatch.setattr(cli, "poincare", too_deep)
        code, out, err = run(capsys, "poincare", "--lambda", "2,1")
        assert code == 3
        assert out == ""
        assert err == "resource limit: recursion too deep for this input\n"

    def test_poincare_depth_is_not_bounded_by_the_stack(self, capsys):
        # one row of 1000 boxes is one cell; poincare walks its levels in a loop
        code, out, err = run(capsys, "poincare", "--lambda", "1000")
        assert code == 0
        assert err == ""
        assert json.loads(out)["coefficients"] == [1]

    def test_out_of_memory_exits_3(self, capsys):
        code, out, err = run(capsys, "cells", "--lambda", "99999999999999")
        assert code == 3
        assert out == ""
        assert err == "resource limit: out of memory for this input\n"


class TestParser:
    def test_built_once(self):
        assert build_parser() is build_parser()

    @pytest.mark.parametrize("command", ["count", "verify"])
    def test_workers_slot_is_not_read(self, capsys, command):
        argv = [command, "--lambda", "2,1", "--q", "2"]
        plain = run(capsys, *argv)
        assert plain[0] == 0
        assert run(capsys, *argv, "--workers", "0") == plain

    def test_flags_per_command(self, capsys):
        # every command reads --lambda, --h, --format and --out; the F_q
        # search flags belong to count and verify, --seed to verify alone;
        # the four benchmarked commands accept --workers without reading it
        dests = {"--lambda": "lam", "--h": "h", "--format": "format", "--out": "out",
                 "--q": "q", "--budget-bits": "budget_bits", "--workers": "workers",
                 "--seed": "seed", "--w": "w"}
        search = {"--q", "--budget-bits"}
        hidden = {"--workers"}
        extra = {
            "cells": hidden,
            "poincare": hidden,
            "r0": set(),
            "verify": search | hidden | {"--seed"},
            "generic-flag": {"--w"},
            "count": search | hidden,
            "profile": {"--w"},
        }
        parser = build_parser()
        for command, flags in extra.items():
            accepted = {"--lambda", "--h", "--format", "--out"} | flags
            ns = parser.parse_args([command, "--lambda", "2,1"])
            assert set(vars(ns)) == {"command", "func"} | {dests[f] for f in accepted}
            if flags & hidden:
                assert ns.workers is None, command
                with pytest.raises(SystemExit):
                    main([command, "--help"])
                assert "--workers" not in capsys.readouterr().out, command
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


class TestReadme:
    """README's examples run as printed, so the docs cannot drift unseen."""

    README = (Path(__file__).parents[1] / "README.md").read_text()

    def _block(self, opening: str, after: str) -> list[str]:
        tail = self.README.split(after, 1)[1]
        body = tail.split(opening + "\n", 1)[1].split("```\n", 1)[0]
        return body.splitlines()

    def test_command_line_examples_exit_0(self, capsys):
        lines = [line.split("#", 1)[0].split()
                 for line in self._block("```", "## Command line")]
        commands = [argv[1:] for argv in lines if argv[:1] == ["hesspave"]]
        assert [argv[0] for argv in commands] == [
            "cells", "poincare", "r0", "verify", "count", "generic-flag", "profile"]
        for argv in commands:
            assert run(capsys, *argv)[0] == 0, argv

    def test_python_snippet_prints_its_comment(self, capsys):
        lines = self._block("```python", "## Library layout")
        exec("\n".join(lines), {})
        out, _ = capsys.readouterr()
        assert lines[-1] == "# (1, 5, 14, 24, 25, 16, 5)"
        assert out == lines[-1][2:] + "\n"


def _fresh_python(code: str, hash_seed: int | None = None) -> dict:
    """Run `code` in a new interpreter that imports hesspave from this tree,
    under PYTHONHASHSEED=hash_seed if given; it prints one JSON value, which
    is returned."""
    import os
    import subprocess
    import sys

    import hesspave

    src = str(Path(hesspave.__file__).resolve().parent.parent)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    if hash_seed is not None:
        env["PYTHONHASHSEED"] = str(hash_seed)
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, env=env, check=True)
    return json.loads(proc.stdout)


class TestColdStart:
    # modules the exact commands must not load: the polynomial and matrix
    # layers, the F_q layer, numpy, and the standard-library modules that
    # only those layers import
    HEAVY = ["hesspave.exactla", "hesspave.domains", "hesspave.oracle",
             "dataclasses", "fractions", "numpy"]

    def test_exact_commands_load_only_the_paving(self):
        loaded = _fresh_python(f"""
import contextlib, io, json, sys
import hesspave.cli
heavy = {self.HEAVY!r}
seen = {{"import": [0, sorted(m for m in heavy if m in sys.modules),
                   sorted(m for m in sys.modules if m.startswith("hesspave"))]}}
runs = [
    ["cells", "--lambda", "2,2,1"],
    ["poincare", "--lambda", "2,2,1"],
    ["r0", "--lambda", "2,2,1", "--h", "0,1,1,2,3"],
    ["profile", "--lambda", "2,1", "--w", "2,3,1"],
    ["generic-flag", "--lambda", "2,1", "--w", "2,3,1"],
    ["count", "--lambda", "2,1", "--q", "2"],
]
for argv in runs:
    with contextlib.redirect_stdout(io.StringIO()):
        code = hesspave.cli.main(argv)
    seen[argv[0]] = [code, sorted(m for m in heavy if m in sys.modules)]
print(json.dumps(seen))
""")
        assert loaded.pop("import") == [0, [], ["hesspave", "hesspave.cli",
                                                "hesspave.combinatorics", "hesspave.paving"]]
        for command in ("cells", "poincare", "r0", "profile"):
            assert loaded[command] == [0, []], command
        # generic-flag needs the polynomials, count the F_q layer
        fq = {"hesspave.oracle", "numpy"}
        assert loaded["generic-flag"] == [0, sorted(set(self.HEAVY) - fq)]
        assert loaded["count"] == [0, sorted(self.HEAVY)]

    def test_fq_layer_loads_no_thread_pool(self):
        loaded = _fresh_python("""
import json, sys
import hesspave.verify
print(json.dumps("concurrent.futures" in sys.modules))
""")
        assert loaded is False

    def test_package_names_resolve_on_first_access(self):
        seen = _fresh_python("""
import importlib, json, sys
import hesspave
from hesspave import cli
before = sorted(m for m in ("numpy", "hesspave.exactla", "hesspave.domains")
                if m in sys.modules)
try:
    hesspave.no_such_name
    unknown = "resolved"
except AttributeError:
    unknown = sorted(m for m in ("numpy", "hesspave.exactla", "hesspave.domains")
                     if m in sys.modules)
print(json.dumps({
    "before": before,
    "unknown": unknown,
    # each name is the object of the module that defines it
    "wrong": sorted(
        name for name, module in hesspave._LAZY_NAMES.items()
        if getattr(hesspave, name)
        is not getattr(importlib.import_module("hesspave." + module), name)
        or getattr(hesspave, name).__module__ != "hesspave." + module
    ),
    "modules": sorted(set(hesspave._LAZY_NAMES.values())),
}))
""")
        assert seen == {"before": [], "unknown": [], "wrong": [],
                        "modules": ["domains", "exactla", "oracle", "verify"]}


def test_outputs_do_not_depend_on_the_hash_seed():
    # README promises the same bytes for a fixed configuration; str and
    # bytes hashes, and so the iteration order of sets holding them, follow
    # PYTHONHASHSEED (int-tuple hashes, as in the inversion sets, do not)
    runs = []
    for lam, h, w in [("2,2,1", "0,1,1,2,3", "3,2,5,1,4"),
                      ("3,2,1", "0,1,1,2,3,4", "3,2,5,1,4,6")]:
        shape = ["--lambda", lam, "--h", h]
        runs += [["cells", *shape], ["cells", *shape, "--format", "text"]]
        runs += [["generic-flag", *shape, "--w", w, "--format", fmt]
                 for fmt in ("json", "csv", "text")]
        runs += [["profile", *shape, "--w", w], ["verify", *shape, "--q", "2"]]
    runs.append(["count", "--lambda", "2,2,1", "--h", "0,1,1,2,3", "--q", "3"])
    code = f"""
import contextlib, io, json
from hesspave.cli import main
outputs = []
for argv in {runs!r}:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(argv)
    outputs.append([code, out.getvalue()])
print(json.dumps(outputs))
"""
    seed0 = _fresh_python(code, hash_seed=0)
    assert [c for c, _ in seed0] == [0] * len(runs)
    assert seed0 == _fresh_python(code, hash_seed=1)


def test_console_script_installed():
    import importlib
    import os
    import shutil
    import subprocess
    import sys

    exe = shutil.which("hesspave")
    env = None
    if exe is not None:
        cmd = [exe]
    else:
        # not installed: the [project.scripts] entry must still resolve to
        # cli.main, and running it the way the script would must work;
        # reading pyproject.toml needs tomllib, in the standard library
        # from Python 3.11
        tomllib = pytest.importorskip("tomllib")
        pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
        target = tomllib.loads(pyproject.read_text())["project"]["scripts"]["hesspave"]
        module, _, attr = target.partition(":")
        assert getattr(importlib.import_module(module), attr) is main
        import hesspave

        src = str(Path(hesspave.__file__).resolve().parent.parent)
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        script = f"import sys; from {module} import {attr}; sys.exit({attr}())"
        cmd = [sys.executable, "-c", script]
    proc = subprocess.run(
        cmd + ["poincare", "--lambda", "1,1"], capture_output=True, text=True, env=env
    )
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["coefficients"] == [1, 1]
