import csv
import hashlib
import io
import json
import os
import shlex
import subprocess
import sys
import time
import warnings
from array import array
from itertools import combinations
from pathlib import Path

import pytest

from multrep import (
    SearchBudget,
    build,
    count_system_reps,
    dump_coloring,
    mh_table,
    window_stats,
)
from multrep import catalog, integer_sets, ramsey, set_partitions
from multrep.cli import build_parser, main, parse_system_spec
from multrep.repcount import summarize_window

from conftest import pentagon_coloring


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_parse_system_spec_shorthands():
    assert parse_system_spec("fundamental:h=2") == build("fundamental", 2).system
    assert parse_system_spec("one-t:h=2,t=3") == build("one-t", 2, t=3).system
    assert parse_system_spec("one-inf:h=3") == build("one-inf", 3).system
    assert parse_system_spec("s-inf:h=3,s=2") == build("s-inf", 3, s=2).system


def test_parse_system_spec_parts_and_file(tmp_path):
    sys_a = parse_system_spec("parts:AllNaturals;Singleton(1,2)")
    assert sys_a.h == 2
    path = tmp_path / "system.txt"
    path.write_text("AllNaturals\nSingleton(1,2)  # second part\n")
    assert parse_system_spec(f"@{path}") == sys_a


def test_count_command(capsys):
    code, out, _ = run(capsys, "count", "--system", "fundamental:h=2", "--n", "360")
    assert code == 0
    assert "count: 1" in out


def test_count_matches_library(capsys):
    code, out, _ = run(
        capsys, "count", "--system", "one-t:h=2,t=3", "--n", "40", "--format", "json"
    )
    record = json.loads(out)
    lib = count_system_reps(build("one-t", 2, t=3).system, 40)
    assert code == 0 and record == lib.to_record()


def test_window_command(capsys):
    code, out, _ = run(
        capsys, "window", "--system", "one-t:h=2,t=3",
        "--lo", "2", "--hi", "64", "--format", "json",
    )
    record = json.loads(out)
    assert code == 0
    assert record == window_stats(build("one-t", 2, t=3).system, 2, 64).to_record()
    assert record["min_count"] == 1 and record["max_count"] == 3


# Each command's stdout, pinned apart from the record dataclasses that
# produce it: a renamed, added or reordered field changes these bytes
GOLDEN = {
    "cli_count": ("count", "--system", "fundamental:h=2", "--n", "360"),
    "cli_window": ("window", "--system", "one-t:h=2,t=3", "--lo", "2", "--hi", "64"),
    "cli_correspond": ("correspond", "--system", "s-inf:h=2,s=2", "--q", "30"),
    # the last n the smallest-prime-factor sieve serves
    "cli_window_edge": (
        "window", "--system", "s-inf:h=3,s=3", "--lo", "1048000", "--hi", "1048575",
    ),
    # an all-multiplicative witness stream, each candidate read from the sieve
    "cli_witness": (
        "witness", "--system", "parts:AllNaturals;AllNaturals", "--target", "48",
        "--max-n", "1048576", "--strategy", "exhaustive",
    ),
}


@pytest.mark.parametrize("fmt, suffix", [("text", "txt"), ("json", "json")])
@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_records_match_their_golden_files(capsys, name, fmt, suffix):
    code, out, err = run(capsys, *GOLDEN[name], "--format", fmt)
    golden = Path(__file__).parent / "data" / f"{name}.{suffix}"
    assert (code, err) == (0, "")
    assert out == golden.read_text()


def test_window_csv(capsys):
    code, out, _ = run(
        capsys, "window", "--system", "fundamental:h=2",
        "--lo", "2", "--hi", "5", "--format", "csv",
    )
    assert code == 0
    assert out.splitlines() == ["n,count", "2,1", "3,1", "4,1", "5,1"]


def test_catalog_verify_command(capsys):
    code, out, _ = run(
        capsys, "catalog-verify", "--name", "one-t", "--h", "2", "--t", "2",
        "--max-n", "200", "--format", "json",
    )
    assert code == 0
    record = json.loads(out)
    assert record["all_match"] is True


def test_catalog_verify_csv_matches_library(capsys):
    code, out, _ = run(
        capsys, "catalog-verify", "--name", "fundamental", "--h", "2",
        "--max-n", "20", "--format", "csv",
    )
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "n,closed_form,brute_force,match"
    assert len(lines) == 21
    assert all(line.endswith(",1") for line in lines[1:])


@pytest.mark.parametrize(
    "argv, err",
    [
        (("--name", "fundamental", "--t", "3"), "error: fundamental takes only h\n"),
        (("--name", "one-t", "--h", "2", "--t", "2", "--s", "3"),
         "error: one-t takes only h, t\n"),
        (("--name", "s-inf", "--h", "3", "--s", "2", "--t", "1"),
         "error: s-inf takes only h, s\n"),
    ],
)
def test_catalog_verify_refuses_a_key_its_construction_does_not_take(capsys, argv, err):
    assert run(capsys, "catalog-verify", *argv) == (2, "", err)


def test_catalog_verify_gives_h_the_default_of_build(capsys):
    argv = ("catalog-verify", "--name", "s-inf", "--s", "2", "--format", "json")
    assert run(capsys, *argv) == run(capsys, *argv, "--h", "2")


def test_mh_table_command(capsys):
    code, out, _ = run(capsys, "mh-table", "--h", "2", "--t-cutoff", "3")
    assert code == 0
    assert len(out.splitlines()) == len(mh_table(2, 3)) == 5


@pytest.mark.parametrize("h", [2, 3])
def test_catalog_verify_checks_the_construction_of_each_mh_table_row(capsys, h):
    code, out, err = run(capsys, "mh-table", "--h", str(h), "--format", "csv")
    assert (code, err) == (0, "")
    rows = list(csv.DictReader(io.StringIO(out)))
    assert len(rows) == len(mh_table(h, 3))
    keys = {"one-t": "t", "s-inf": "s"}
    for row in rows:
        name = row["construction"]
        key = (f"--{keys[name]}", row[keys[name]]) if name in keys else ()
        code, out, _ = run(
            capsys, "catalog-verify", "--name", name, "--h", str(h), *key,
            "--max-n", "60", "--format", "json",
        )
        assert code == 0, row
        record = json.loads(out)
        assert record["all_match"] is True
        assert [str(v) for v in record["claimed"]] == [row["s"], row["t"]]


def test_ramsey_command_pentagon(capsys, tmp_path):
    path = tmp_path / "pentagon.txt"
    path.write_text(dump_coloring(pentagon_coloring()))
    code, out, _ = run(capsys, "ramsey", "--coloring", str(path), "--m", "3")
    assert code == 0
    assert out.strip() == "none"


def test_ramsey_command_finds_subset(capsys, tmp_path):
    path = tmp_path / "constant.txt"
    lines = ["ground: 1 2 3 4", "k: 1"]
    lines += [f"{i} : 0" for i in range(1, 5)]
    path.write_text("\n".join(lines) + "\n")
    code, out, _ = run(
        capsys, "ramsey", "--coloring", str(path), "--m", "2", "--format", "json"
    )
    assert code == 0
    assert json.loads(out) == {"subset": [1, 2], "color": 0}


@pytest.mark.parametrize(
    "rows, err",
    [
        ("1 2 : 0\n2 1 : 1\n", "error: duplicate subset in coloring: [1, 2]\n"),
        (
            "1 2 : 0\n1 3 : 1\n",
            "error: coloring is not total on the 2-subsets (missing 1, extraneous 0)\n",
        ),
    ],
)
def test_ramsey_command_rejects_invalid_file(capsys, tmp_path, rows, err):
    path = tmp_path / "bad.txt"
    path.write_text("ground: 1 2 3\nk: 2\n" + rows)
    assert run(capsys, "ramsey", "--coloring", str(path), "--m", "2") == (2, "", err)


def test_ramsey_command_refuses_an_unreadable_coloring_file(capsys, tmp_path):
    for path in (tmp_path / "missing.txt", tmp_path):
        code, out, err = run(capsys, "ramsey", "--coloring", str(path), "--m", "2")
        assert (code, out) == (2, "")
        assert err.startswith(f"error: cannot read coloring file {str(path)!r}: ")
        assert err.count("\n") == 1


def test_ramsey_command_refuses_an_oversize_table(capsys, tmp_path):
    path = tmp_path / "oversize.txt"
    path.write_text("ground: " + " ".join(map(str, range(1, 101))) + "\nk: 10\n")
    assert path.stat().st_size == 306
    start = time.perf_counter()
    code, out, err = run(capsys, "ramsey", "--coloring", str(path), "--m", "11")
    assert time.perf_counter() - start < 1.0
    assert (code, out) == (1, "")
    assert err.startswith("error: a coloring of the 10-subsets of 100 elements")


@pytest.mark.parametrize(
    "argv",
    [
        ("witness", "--system", "fundamental:h=2", "--target", "2", "--max-n", "50"),
        ("ramsey", "--coloring", "tests/data/pentagon.txt", "--m", "3"),
        ("correspond", "--system", "s-inf:h=2,s=2", "--q", "30"),
    ],
    ids=["witness", "ramsey", "correspond"],
)
def test_csv_is_refused_by_commands_that_write_records(capsys, argv):
    code, out, err = run(capsys, *argv, "--format", "csv")
    assert (code, out) == (2, "")
    assert "invalid choice: 'csv'" in err


def test_witness_defaults_are_the_default_budget():
    args = build_parser().parse_args(["witness", "--system", "fundamental", "--target", "2"])
    budget = SearchBudget()
    assert (args.max_candidates, args.max_n, args.strategy) == (
        budget.max_candidates, budget.max_n, budget.strategy,
    )


def test_witness_command(capsys):
    code, out, _ = run(
        capsys, "witness", "--system", "fundamental:h=2", "--target", "2",
        "--max-n", "500", "--max-candidates", "499",
        "--strategy", "exhaustive", "--format", "json",
    )
    assert code == 0
    record = json.loads(out)
    assert record["found"] is False and record["max_count_seen"] == 1


def test_partitions_command(capsys):
    code, out, _ = run(capsys, "partitions", "--q", "6", "--h", "2", "--format", "json")
    assert code == 0
    assert json.loads(out) == [
        [[2, 3], []], [[2], [3]], [[3], [2]], [[], [2, 3]],
    ]


def test_partitions_json_and_csv_list_the_same_partitions(capsys):
    q = 2 * 3 * 5 * 7 * 11 * 13 * 17 * 19
    code, out, _ = run(capsys, "partitions", "--q", str(q), "--h", "3", "--format", "json")
    assert code == 0
    listed = json.loads(out)
    code, out, _ = run(capsys, "partitions", "--q", str(q), "--h", "3", "--format", "csv")
    assert code == 0
    rows = list(csv.reader(io.StringIO(out)))
    assert rows[0] == ["blocks"]
    assert [
        [[int(p) for p in block.split()] for block in row.split(";")]
        for (row,) in rows[1:]
    ] == listed
    assert len(listed) == 3**8


def test_partitions_csv_at_the_10_prime_primorial_is_pinned(capsys):
    code, out, err = run(
        capsys, "partitions", "--q", "6469693230", "--h", "3", "--format", "csv"
    )
    assert (code, err) == (0, "")
    assert out.count("\n") == 3**10 + 1
    assert hashlib.sha1(out.encode()).hexdigest() == (
        "3f6c17d14a8221ee861bc3bb03c28a85a6b5c299"
    )


def test_correspond_command(capsys):
    # s-inf:h=2,s=2 counts 1 + omega(q) at a squarefree q: at the 15-prime
    # primorial its PrimesWithOne part holds 16 of the 32768 divisors
    for q, omega in ((30, 3), (6469693230, 10), (614889782588491410, 15)):
        code, out, _ = run(
            capsys, "correspond", "--system", "s-inf:h=2,s=2", "--q", str(q),
            "--format", "json",
        )
        assert code == 0
        record = json.loads(out)
        assert record["equal"] is True
        assert record["system_count"] == record["cover_count"] == 1 + omega


def test_correspond_at_the_13_prime_primorial_h4(capsys):
    code, out, _ = run(
        capsys, "correspond",
        "--system", "parts:AllNaturals;AllNaturals;AllNaturals;AllNaturals",
        "--q", "304250263527210", "--format", "json",
    )
    assert code == 0
    record = json.loads(out)
    assert record["system_count"] == record["cover_count"] == 4**13


def test_correspond_obeys_the_cover_fold_cap(capsys):
    q = 614889782588491410  # the product of the first 15 primes
    # Primes is a middle family above the tail, so the fold needs 3^15 steps
    start = time.perf_counter()
    code, out, err = run(
        capsys, "correspond",
        "--system", "parts:AllNaturals;Primes;AllNaturals;AllNaturals",
        "--q", str(q),
    )
    assert time.perf_counter() - start < 2.0
    assert (code, out) == (1, "")
    assert err == (
        "error: |S| = 15 needs 14348907 fold steps per family, "
        "above the cap 1594323\n"
    )
    # a cover that is all tail folds nothing, and is not capped
    for h in (2, 4):
        code, out, _ = run(
            capsys, "correspond", "--system", "parts:" + ";".join(["AllNaturals"] * h),
            "--q", str(q), "--format", "json",
        )
        assert code == 0
        record = json.loads(out)
        assert record["system_count"] == record["cover_count"] == h**15


@pytest.mark.parametrize("q", [5 * 4194319, 5 * 4194329])
@pytest.mark.parametrize("first", [
    "Union(Primes,SmoothOver(IndexResidue(2,0)));Singleton(1)",
    "SmoothOver(IndexResidue(2,0));Singleton(1,6)",
])
def test_correspond_reads_a_first_block_in_increasing_prime_order(capsys, q, first):
    # SmoothOver refuses the block at 5 before it asks for the index of
    # the prime beyond 2^22, whatever the hash slots of the two primes,
    # and the multiplicative first part is decided only there since the
    # last part is not multiplicative
    code, out, _ = run(
        capsys, "correspond", "--system", "parts:" + first, "--q", str(q)
    )
    assert code == 0
    assert "equal: True" in out.splitlines()


def test_correspond_with_a_tail_intersection_that_refuses_a_big_prime(capsys):
    # SmoothOver(ExplicitList(3)) refuses 4194319 before the second part
    # of the Intersection asks for the index of that prime beyond 2^22
    spec = "parts:AllNaturals;Intersection(SmoothOver(ExplicitList(3)),SmoothOver(IndexResidue(2,0)))"
    code, out, _ = run(capsys, "correspond", "--system", spec, "--q", str(3 * 4194319))
    assert code == 0
    assert "equal: True" in out.splitlines()


def test_count_and_correspond_answer_a_zero_before_the_index_of_a_big_prime(capsys):
    # no part holds 2, so both sides stop there, before the index of the
    # prime beyond 2^22
    spec = "parts:Singleton(1);SmoothOver(IndexResidue(2,0))"
    q = 2 * 3 * 5 * 4194319
    code, out, _ = run(capsys, "count", "--system", spec, "--n", str(q))
    assert code == 0
    assert "count: 0" in out.splitlines()
    code, out, _ = run(capsys, "correspond", "--system", spec, "--q", str(q))
    assert code == 0
    assert "equal: True" in out.splitlines()


def test_count_answers_at_the_last_prime_below_the_index_cap_and_refuses_above(
    capsys, monkeypatch
):
    # a fresh sieve, restored afterwards so that no other test holds 2^22
    monkeypatch.setattr(integer_sets, "_spf", array("I"))
    monkeypatch.setattr(integer_sets, "_primes", [])
    count = ("count", "--system", "fundamental:h=2", "--tuple-cap", "0", "--n")
    code, out, _ = run(capsys, *count, str(2 * 4194301))
    assert code == 0
    assert "count: 1" in out.splitlines()
    assert run(capsys, *count, str(2 * 4194319)) == (
        1, "", "error: the index of 4194319 needs a sieve beyond 4194304\n",
    )


@pytest.mark.parametrize("spec", [
    "fundamental:H=3",
    "fundamental:h=2,h=3",
    "one-t:h=2,t=3,s=9",
    "one-t:h=2,t=3,t=3",
    "one-inf:h=2,t=1",
    "s-inf:h=3,s=2,t=1",
])
def test_a_shorthand_with_an_unknown_or_repeated_key_is_a_bad_spec(capsys, spec):
    code, out, err = run(capsys, "count", "--system", spec, "--n", "12")
    assert (code, out) == (2, "")
    assert err.startswith(f"error: bad system spec {spec!r}")


def test_each_shorthand_takes_its_own_keys():
    assert parse_system_spec("fundamental") == build("fundamental", 2).system
    assert parse_system_spec("one-inf:h=3") == build("one-inf", 3).system
    assert parse_system_spec("one-t:t=3,h=2") == build("one-t", 2, t=3).system
    assert parse_system_spec("s-inf:s=2,h=3") == build("s-inf", 3, s=2).system


def test_correspond_takes_no_universe(capsys):
    code, out, err = run(
        capsys, "correspond", "--system", "s-inf:h=2,s=2", "--q", "30",
        "--universe", "2,3,5",
    )
    assert (code, out) == (2, "")
    assert "unrecognized arguments: --universe 2,3,5" in err


REPO = Path(__file__).resolve().parent.parent


def readme_cli_commands():
    """The commands of the README's CLI block, continuation lines joined."""
    text = (REPO / "README.md").read_text()
    block = text.split("## CLI", 1)[1].split("```sh\n", 1)[1].split("```", 1)[0]
    return [line for line in block.replace("\\\n", " ").splitlines() if line.strip()]


def test_readme_cli_examples(capsys, monkeypatch):
    monkeypatch.chdir(REPO)
    commands = readme_cli_commands()
    assert len(commands) >= 9
    for line in commands:
        lexer = shlex.shlex(line, posix=True, punctuation_chars=True)
        lexer.whitespace_split = True
        words = list(lexer)
        operators = [w for w in words if set(w) <= set(lexer.punctuation_chars)]
        assert not operators, f"shell operator {operators} in {line!r}"
        assert words[0] == "multrep"
        code, _, err = run(capsys, *words[1:])
        assert code == 0, f"{line!r} exited {code}: {err}"


def test_usage_errors_exit_2(capsys):
    assert run(capsys, "count", "--system", "bogus:h=2", "--n", "5")[0] == 2
    assert run(capsys, "count", "--system", "parts:Nope", "--n", "5")[0] == 2
    assert run(capsys, "nonsense")[0] == 2


def test_a_window_checks_its_range_before_writing_a_row(capsys):
    code, out, err = run(
        capsys, "window", "--system", "fundamental:h=2",
        "--lo", "5", "--hi", "4", "--format", "csv",
    )
    assert (code, out, err) == (2, "", "error: need 1 <= lo <= hi\n")


def test_window_reports_a_bad_spec_as_a_usage_error(capsys):
    for spec in ("bogus", "s-inf:h=3,s=2,t=1"):
        code, out, err = run(capsys, "window", "--system", spec, "--lo", "2", "--hi", "60")
        assert (code, out) == (2, "")
        assert f"error: bad system spec {spec!r}" in err
        assert "Traceback" not in err


def test_window_takes_one_range_in_every_format(capsys):
    window = ("window", "--system", "s-inf:h=2,s=2")
    outs = {}
    for fmt in ("text", "json", "csv"):
        code, outs[fmt], err = run(capsys, *window, "--lo", "1", "--hi", "3", "--format", fmt)
        assert (code, err) == (0, "")
        code, out, err = run(capsys, *window, "--lo", "5", "--hi", "4", "--format", fmt)
        assert (code, out, err) == (2, "", "error: need 1 <= lo <= hi\n")
    rows = list(csv.reader(io.StringIO(outs["csv"])))[1:]
    record = summarize_window(1, 3, [(int(n), int(c)) for n, c in rows]).to_record()
    assert [int(n) for n, _ in rows] == [1, 2, 3]
    assert json.loads(outs["json"]) == record
    assert outs["text"] == "".join(f"{key}: {value}\n" for key, value in record.items())


def test_ramsey_command_refuses_a_negative_m(capsys, tmp_path):
    path = tmp_path / "pentagon.txt"
    path.write_text(dump_coloring(pentagon_coloring()))
    for fmt in ("text", "json"):
        code, out, err = run(
            capsys, "ramsey", "--coloring", str(path), "--m", "-1", "--format", fmt
        )
        assert (code, out, err) == (2, "", "error: m must be >= 0\n")


def test_ramsey_command_refuses_a_negative_budget_and_exhausts_a_zero_one(capsys):
    path = str(Path(__file__).parent / "data" / "pentagon.txt")
    for fmt in ("text", "json"):
        code, out, err = run(
            capsys, "ramsey", "--coloring", path, "--m", "3", "--budget", "-1", "--format", fmt
        )
        assert (code, out, err) == (2, "", "error: budget must be >= 0\n")
    code, out, err = run(capsys, "ramsey", "--coloring", path, "--m", "3", "--budget", "0")
    assert (code, out) == (1, "")
    assert err.startswith("error: node budget 0 exhausted")


@pytest.mark.parametrize(
    "argv, err",
    [
        (("count", "--system", "fundamental:h=2", "--n", "12", "--tuple-cap", "-1"),
         "tuple_cap must be >= 0"),
        (("witness", "--system", "fundamental:h=2", "--target", "2", "--max-n", "-5"),
         "max_n must be >= 2"),
        (("witness", "--system", "fundamental:h=2", "--target", "2", "--max-n", "1"),
         "max_n must be >= 2"),
        (("partitions", "--q", "30", "--h", "2", "--cap", "-1"), "cap must be >= 0"),
    ],
)
def test_a_negative_cap_or_a_max_n_below_2_is_a_usage_error(capsys, argv, err):
    assert run(capsys, *argv) == (2, "", f"error: {err}\n")


def test_byte_identical_output(capsys):
    args = ("window", "--system", "one-t:h=2,t=2", "--lo", "2", "--hi", "50",
            "--format", "csv")
    _, out_a, _ = run(capsys, *args)
    _, out_b, _ = run(capsys, *args)
    assert out_a == out_b


def test_count_obeys_the_lattice_pair_cap(capsys):
    n = 614889782588491410  # the product of the first 15 primes
    dense = "Union(Squarefree,Primes)"
    start = time.perf_counter()
    code, out, err = run(
        capsys, "count", "--system", f"parts:{dense};{dense};AllNaturals",
        "--n", str(n),
    )
    assert time.perf_counter() - start < 5.0
    assert (code, out) == (1, "")
    assert err == (
        f"error: the divisor lattice of {n} needs at least 1073741824 "
        "member-support pairs, above the cap 67108864\n"
    )
    # a dense point below the cap still answers
    code, out, _ = run(
        capsys, "count", "--system",
        "parts:AllNaturals;Union(Squarefree,PowersOf(2,1));AllNaturals",
        "--n", "97821761637600", "--tuple-cap", "0",
    )
    assert code == 0
    assert "count: 1833075\n" in out


def nested_spec(depth: int) -> str:
    return "parts:" + "Union(" * depth + "Primes" + ")" * depth + ";AllNaturals"


@pytest.mark.parametrize("depth", [201, 400])
def test_a_spec_nested_too_deep_exits_2(capsys, depth):
    code, out, err = run(capsys, "count", "--system", nested_spec(depth), "--n", "6")
    assert (code, out) == (2, "")
    assert err.startswith("error: bad system spec")
    assert "Traceback" not in err


def test_a_spec_nested_200_levels_counts(capsys):
    code, out, _ = run(capsys, "count", "--system", nested_spec(200), "--n", "6")
    assert code == 0
    assert "count: 2\n" in out


HUGE = "99999999999999999999"  # above 2^63 - 1


def test_a_prime_class_element_above_64_bits_is_a_bad_spec(capsys):
    spec = f"parts:SmoothOver(ExplicitList({HUGE}));AllNaturals"
    for argv in (
        ("count", "--system", spec, "--n", "6"),
        ("correspond", "--system", spec, "--q", "6"),
    ):
        code, out, err = run(capsys, *argv)
        assert (code, out) == (2, "")
        assert err.startswith("error: bad system spec")
        assert f"{HUGE} exceeds 64-bit range" in err
        assert "Traceback" not in err


@pytest.mark.parametrize(
    "spec",
    [
        "parts:Primes" + "()" * 10**4,
        "parts:ExplicitList(" + "2," * 10**4 + "Primes);AllNaturals",
    ],
    ids=["call-chain", "long-argument-list"],
)
def test_a_long_bad_spec_is_quoted_in_part(capsys, spec):
    code, out, err = run(capsys, "count", "--system", spec, "--n", "6")
    assert (code, out) == (2, "")
    assert err.startswith("error: bad system spec")
    assert len(err.encode()) < 1024


@pytest.mark.parametrize(
    "part",
    [
        "Union(" * 400 + "Primes" + ")" * 400,
        "Primes" + "()" * 10**5,
        "not " * 10**5 + "Primes",
        "Singleton(1inf)",
    ],
    ids=["nested", "call-chain", "not-chain", "1inf"],
)
def test_a_malformed_spec_file_exits_2_without_a_warning(capsys, tmp_path, part):
    path = tmp_path / "system.txt"
    path.write_text(part + "\nAllNaturals\n")
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code, out, err = run(capsys, "count", "--system", f"@{path}", "--n", "6")
    assert (code, out) == (2, "")
    assert err.startswith("error: bad system spec")
    assert "Traceback" not in err
    assert caught == []


PENTAGON = "tests/data/pentagon.txt"
CSV_COMMANDS = {"count", "window", "catalog-verify", "mh-table", "partitions"}
# one invocation per outcome of every subcommand
OUTCOMES = [
    ("count", "--system", "fundamental:h=2", "--n", "360"),
    ("window", "--system", "one-t:h=2,t=3", "--lo", "2", "--hi", "64"),
    ("catalog-verify", "--name", "one-t", "--h", "2", "--t", "2", "--max-n", "200"),
    ("mh-table", "--h", "3"),
    ("witness", "--system", "parts:AllNaturals;AllNaturals", "--target", "3",
     "--max-n", "100"),
    ("witness", "--system", "fundamental:h=2", "--target", "2", "--max-n", "50"),
    ("ramsey", "--coloring", PENTAGON, "--m", "2"),
    ("ramsey", "--coloring", PENTAGON, "--m", "3"),
    ("partitions", "--q", "30", "--h", "3"),
    ("correspond", "--system", "s-inf:h=2,s=2", "--q", "30"),
]


def test_outcomes_cover_every_subcommand():
    usage = build_parser().format_usage()
    commands = usage.split("{", 1)[1].split("}", 1)[0].split(",")
    assert sorted({argv[0] for argv in OUTCOMES}) == sorted(commands)


@pytest.mark.parametrize(
    "argv", OUTCOMES, ids=[f"{argv[0]}-{i}" for i, argv in enumerate(OUTCOMES)]
)
def test_every_format_parses(capsys, monkeypatch, argv):
    monkeypatch.chdir(REPO)
    formats = ["text", "json"] + (["csv"] if argv[0] in CSV_COMMANDS else [])
    for fmt in formats:
        code, out, err = run(capsys, *argv, "--format", fmt)
        assert code == 0, f"{argv} --format {fmt} exited {code}: {err}"
        assert out
        if fmt == "json":
            json.loads(out)
        elif fmt == "csv":
            header, *rows = csv.reader(io.StringIO(out))
            assert rows
            assert all(len(row) == len(header) for row in rows)


def test_ramsey_json_when_no_subset_exists(capsys, monkeypatch):
    monkeypatch.chdir(REPO)
    argv = ("ramsey", "--coloring", PENTAGON, "--m", "3")
    assert json.loads(run(capsys, *argv, "--format", "json")[1]) == {
        "subset": None, "color": None,
    }
    assert run(capsys, *argv) == (0, "none\n", "")


@pytest.mark.parametrize(
    "module, name, fake, argv, shown, err",
    [
        (catalog, "closed_form", lambda construction, n: 0,
         ("catalog-verify", "--name", "fundamental", "--max-n", "20"),
         ["all_match: False"], "verification FAILED\n"),
        (ramsey, "homogeneous_color", lambda coloring, subset: None,
         ("ramsey", "--coloring", PENTAGON, "--m", "2"),
         [], "checker rejected the emitted subset\n"),
        (set_partitions, "count_ordered_covers", lambda s, families: 0,
         ("correspond", "--system", "s-inf:h=2,s=2", "--q", "30"),
         ["cover_count: 0", "equal: False"], "correspondence FAILED\n"),
    ],
    ids=["catalog-verify", "ramsey", "correspond"],
)
def test_a_failed_check_exits_1_with_its_own_line(
    capsys, monkeypatch, module, name, fake, argv, shown, err
):
    # the library call whose answer the command checks, made to answer wrongly
    monkeypatch.chdir(REPO)
    monkeypatch.setattr(module, name, fake)
    code, out, got = run(capsys, *argv)
    assert (code, got) == (1, err)
    assert bool(out) == bool(shown)
    assert set(shown) <= set(out.splitlines())


def test_ramsey_command_on_the_paley_17_coloring(capsys, tmp_path):
    # Paley(17) colors a pair by whether its difference is a square mod 17;
    # neither color holds a K4, and {0, 1, 2} is a triangle of color 0
    squares = {x * x % 17 for x in range(1, 17)}
    lines = ["ground: " + " ".join(map(str, range(17))), "k: 2"]
    lines += [
        f"{a} {b} : {int((b - a) not in squares)}"
        for a, b in combinations(range(17), 2)
    ]
    path = tmp_path / "paley17.txt"
    path.write_text("\n".join(lines) + "\n")
    search = ("ramsey", "--coloring", str(path), "--format", "json", "--m")
    code, out, _ = run(capsys, *search, "4")
    assert code == 0
    assert json.loads(out) == {"subset": None, "color": None}
    code, out, _ = run(capsys, *search, "3")
    assert code == 0
    assert json.loads(out) == {"subset": [0, 1, 2], "color": 0}
    code, out, err = run(capsys, *search, "4", "--budget", "0")
    assert (code, out) == (1, "")
    assert err.startswith("error: node budget 0 exhausted")


@pytest.mark.parametrize(
    "argv",
    [
        ["partitions", "--q", "6469693230", "--h", "3", "--format", "csv"],
        ["window", "--system", "s-inf:h=3,s=2", "--lo", "2", "--hi", "30000",
         "--format", "csv"],
    ],
    ids=["partitions", "window"],
)
def test_a_reader_that_closes_early_gets_exit_141_and_no_traceback(argv):
    src = Path(__file__).resolve().parent.parent / "src"
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(src), env.get("PYTHONPATH")) if p
    )
    with subprocess.Popen(
        [sys.executable, "-m", "multrep.cli", *argv],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env,
    ) as proc:
        try:
            first = proc.stdout.readline()
            proc.stdout.close()
            err = proc.stderr.read()
            code = proc.wait(timeout=60)
        finally:
            proc.kill()
    assert first in (b"blocks\n", b"n,count\n")
    assert b"Traceback" not in err, err.decode()
    assert code == 141
