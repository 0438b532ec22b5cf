import argparse
import hashlib
import inspect
import json
import os

from hypothesis import HealthCheck, given, settings, strategies as st

from cayleycount import cli, containers, counting, verify
from cayleycount.cli import RENAMES, SUITE_FLAGS, main
from cayleycount.graphs import graph_from_json


def run_cli(args, capsys):
    code = main(args)
    out = capsys.readouterr()
    return code, out.out, out.err


def test_build_and_count(tmp_path, capsys):
    gpath = str(tmp_path / "g.json")
    code, _, _ = run_cli(["build", "--group", "Z16", "--gens", "1,3,13,15", "-o", gpath], capsys)
    assert code == 0
    data = json.load(open(gpath))
    assert data["group"] == {"factors": [16]}
    assert data["report"]["tool"] == "cayleycount"

    code, out, _ = run_cli(["count", gpath], capsys)
    assert code == 0
    rep = json.loads(out)
    assert rep["i"] == "767"
    assert rep["crosscheck"] is True


def test_build_construction_and_excess(tmp_path, capsys):
    rpath = str(tmp_path / "ring.json")
    code, _, _ = run_cli(["build", "gadget-ring", "--d", "3", "--t", "2",
                          "--seed", "7", "-o", rpath], capsys)
    assert code == 0
    data = json.load(open(rpath))
    assert data["provenance"]["d"] == 3
    code, out, _ = run_cli(["count", rpath, "--no-crosscheck"], capsys)
    rep = json.loads(out)
    assert int(rep["i"]) >= 2 ** 21
    assert "excess_log2" in rep


def test_build_reproducible(tmp_path, capsys):
    argv = ["build", "gadget-ring", "--d", "3", "--t", "2", "--seed", "9"]
    outputs = []
    for name in (None, None, "a.json", "b.json", "a.json"):
        extra = ["-o", str(tmp_path / name)] if name else []
        code, out, err = run_cli(argv + extra, capsys)
        assert code == 0
        assert "elapsed_s" in err
        outputs.append((tmp_path / name).read_bytes() if name else out.encode())
    # the same bytes wherever the report goes
    assert len(set(outputs)) == 1


def test_table_csv(tmp_path, capsys):
    gpath = str(tmp_path / "g.json")
    run_cli(["build", "odd-circulant", "--n", "8", "--d", "3", "-o", gpath], capsys)
    code, out, _ = run_cli(["table", gpath], capsys)
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "a,g,t,count"
    rows = [tuple(int(x) for x in line.split(",")) for line in lines[1:]]
    assert all(t == 3 for _, _, t, _ in rows)
    code, out, _ = run_cli(["table", gpath, "--format", "json"], capsys)
    assert code == 0
    assert [tuple(int(r[k]) for k in "agt") + (int(r["count"]),)
            for r in json.loads(out)["rows"]] == rows


def test_count_of_a_long_cycle(tmp_path, capsys):
    n = 3000
    gpath = tmp_path / "c3000.json"
    gpath.write_text(json.dumps({"vcount": n, "edges": [[v, (v + 1) % n] for v in range(n)]}))
    code, out, err = run_cli(["count", str(gpath), "--budget", "4000"], capsys)
    assert code == 0
    assert "Traceback" not in err
    assert json.loads(out)["i"] == str(counting.lucas_number(n))


def test_non_generating_warning(tmp_path, capsys):
    gpath = str(tmp_path / "g.json")
    code, _, err = run_cli(["build", "--group", "Z6", "--gens", "2,4", "-o", gpath], capsys)
    assert code == 0
    assert "warning" in err
    assert os.path.exists(gpath)


def test_usage_errors(tmp_path, capsys):
    code, _, err = run_cli(["build", "--group", "Z6", "--gens", "2"], capsys)
    assert code == 3  # not symmetric without --symmetrize
    code, _, err = run_cli(["build", "--group", "Z6"], capsys)
    assert code == 3
    assert err.startswith("error: build: need --group and --gens"), err
    plain = tmp_path / "plain.json"
    plain.write_text(json.dumps({"vcount": 2, "edges": [[0, 1]], "parts": [[0], [1]]}))
    code, out, err = run_cli(["containers", str(plain)], capsys)
    assert code == 3 and out == ""
    assert err == "error: containers: needs a Cayley graph input\n"
    # generators that are not integers, and a growth sweep with no group order to draw
    for argv in (["build", "--group", "Z8", "--gens", "x"],
                 ["build", "--group", "Z2xZ4", "--gens", "(1,x)"],
                 ["verify", "growth", "--trials", "1", "--max-order", "1"]):
        code, _, err = run_cli(argv, capsys)
        assert code == 3, argv
        assert err.startswith("error:"), argv
    # argparse errors map to the usage code too, not to 2 (budget exceeded)
    # --format belongs to `table` alone
    for argv in (["verify", "no-such-suite"], ["count"], ["verify", "psi", "--d", "x"],
                 ["count", "g.json", "--format", "json"]):
        code, _, err = run_cli(argv, capsys)
        assert code == 3, argv
        assert "usage" in err
    # a verify flag the suite does not take is refused, not dropped
    for argv in (["verify", "kdd", "--max-order", "3"], ["verify", "thinning", "--n", "8"],
                 ["verify", "side-sum", "--n", "8"], ["verify", "psi", "--n", "8"]):
        code, _, err = run_cli(argv, capsys)
        assert code == 3, argv
        assert err.startswith(f"error: verify {argv[1]}:"), argv
    # n = d + 1 has no records, so this range would check nothing
    code, _, err = run_cli(["verify", "odd-circulant", "--n", "6", "--d", "5"], capsys)
    assert code == 3
    assert err.startswith("error:")
    code, out, _ = run_cli(["--help"], capsys)
    assert code == 0
    assert "usage" in out


def test_invalid_graph_json(tmp_path, capsys):
    # out-of-range and negative endpoints, parts that are not independent,
    # ids, counts and coordinates that are not integers, and JSON of the wrong
    # shape (a missing key, an array at the top level)
    z8 = {"factors": [8]}
    for name, data in (("range", {"vcount": 3, "edges": [[0, 5]]}),
                       ("negative", {"vcount": 3, "edges": [[0, -1]]}),
                       ("parts", {"vcount": 2, "edges": [[0, 1]], "parts": [[0, 1], []]}),
                       ("float-coords", {"group": z8, "generators": [[1.5], [6.5]]}),
                       ("float-id", {"vcount": 2, "edges": [[0, 1.0]]}),
                       ("string-coords", {"group": z8, "generators": [["1"], ["7"]]}),
                       ("float-count", {"vcount": 2.0, "edges": [[0, 1]]}),
                       ("negative-count", {"vcount": -2, "edges": []}),
                       ("bool-part", {"vcount": 2, "edges": [[0, 1]], "parts": [[True], [0]]}),
                       ("three-ends", {"vcount": 3, "edges": [[0, 1, 2]]}),
                       ("no-edges", {"vcount": 2}),
                       ("array", [1, 2]),
                       ("one-part", {"vcount": 2, "edges": [], "parts": [[0, 1]]}),
                       ("no-generators", {"group": z8})):
        gpath = tmp_path / f"{name}.json"
        gpath.write_text(json.dumps(data))
        code, _, err = run_cli(["count", str(gpath)], capsys)
        assert code == 3, name
        assert err.startswith("error:"), name


def test_bad_files_are_usage_errors(tmp_path, capsys):
    # a missing graph, a directory, a file that is not JSON (text, bytes, and
    # nesting too deep for the parser), and an output path that cannot be written
    text, binary, deep = tmp_path / "notes.txt", tmp_path / "blob.bin", tmp_path / "deep.json"
    text.write_text("not a graph\n")
    binary.write_bytes(b"\xff\xfe\x00\x81")
    deep.write_text("[" * 100_000)
    gpath = tmp_path / "g.json"
    gpath.write_text(json.dumps({"vcount": 2, "edges": [[0, 1]]}))
    for argv in (["count", str(tmp_path / "missing.json")],
                 ["count", str(tmp_path)],
                 ["table", str(text)],
                 ["dump-edges", str(binary)],
                 ["count", str(deep)],
                 ["build", "--group", "Z4", "--gens", "1,3", "-o", "/nonexistent_dir/x.json"],
                 ["count", str(gpath), "-o", str(tmp_path)],
                 ["verify", "kdd", "-o", str(tmp_path / "no" / "such" / "dir.json")]):
        code, out, err = run_cli(argv, capsys)
        assert code == 3, argv
        assert err.startswith("error:") and len(err.splitlines()) == 1, (argv, err)
        assert out == "", argv


def test_unwritable_output_fails_before_the_command_runs(tmp_path, capsys, monkeypatch):
    def refuse(**kwargs):
        raise AssertionError("the suite ran although its report cannot be written")

    monkeypatch.setitem(verify.ALL_SUITES, "kdd", refuse)
    for target in (tmp_path / "no" / "such" / "dir.json", tmp_path):
        code, out, err = run_cli(["verify", "kdd", "-o", str(target)], capsys)
        assert code == 3 and out == ""
        assert err.startswith("error: cannot write") and len(err.splitlines()) == 1, err
    # a command that fails after the check leaves an existing file as it was,
    # and creates no file where there was none
    kept, fresh = tmp_path / "kept.json", tmp_path / "fresh.json"
    kept.write_text("earlier report\n")
    for target in (kept, fresh):
        code, _, _ = run_cli(["count", str(tmp_path / "missing.json"), "-o", str(target)], capsys)
        assert code == 3
    assert kept.read_text() == "earlier report\n"
    assert not fresh.exists()


def test_count_reports_the_engine_that_ran(tmp_path, capsys, monkeypatch):
    ring, c24 = str(tmp_path / "ring.json"), str(tmp_path / "c24.json")
    run_cli(["build", "gadget-ring", "--d", "3", "--t", "3", "--seed", "7", "-o", ring], capsys)
    run_cli(["build", "--group", "Z24", "--gens", "1,23", "-o", c24], capsys)
    # the count and its report share one choice: the ring forms its
    # breadth-first order once, C24 (a cycle) never
    formed = []
    order = counting._breadth_first_order
    monkeypatch.setattr(counting, "_breadth_first_order",
                        lambda adj: formed.append(len(adj)) or order(adj))
    for path, engine, orders in ((ring, "frontier", [60]), (c24, "branching", [])):
        code, out, _ = run_cli(["count", path], capsys)
        assert code == 0
        assert json.loads(out)["engine"] == engine, path
        assert formed == orders, path
        formed.clear()


def test_verify_with_nothing_to_check_is_a_usage_error(capsys):
    for argv in (["verify", "chain", "--max-order", "1"], ["verify", "thinning", "--trials", "0"],
                 ["verify", "lovasz-stein", "--trials", "0"],
                 ["verify", "growth", "--trials", "-1"], ["verify", "psi", "--n", "4", "--d", "3"]):
        code, out, err = run_cli(argv, capsys)
        assert code == 3, argv
        assert err == f"error: verify {argv[1]}: these caps leave nothing to check\n", argv
        assert out == "" and "FAIL" not in err, argv


def test_symmetrize_flag(tmp_path, capsys):
    gpath = str(tmp_path / "g.json")
    code, _, _ = run_cli(["build", "--group", "Z8", "--gens", "1", "--symmetrize",
                          "-o", gpath], capsys)
    assert code == 0
    assert json.load(open(gpath))["generators"] == [[1], [7]]


def test_budget_exit_code(tmp_path, capsys):
    rpath = str(tmp_path / "ring.json")
    run_cli(["build", "gadget-ring", "--d", "3", "--t", "4", "-o", rpath], capsys)
    code, _, err = run_cli(["count", rpath, "--budget", "10"], capsys)
    assert code == 2
    assert "budget" in err


def test_verify_subcommand(tmp_path, capsys):
    out_path = str(tmp_path / "rep.json")
    code, _, err = run_cli(["verify", "kdd", "-o", out_path], capsys)
    assert code == 0
    rep = json.load(open(out_path))
    assert rep["passed"] is True
    assert rep["suite"] == "kdd"
    assert "PASS" in err


def test_verify_trials_reach_a_sweep_only_when_given(monkeypatch, capsys):
    calls = []

    def recorder(**kwargs):
        calls.append(kwargs)
        return verify.SweepResult("recorder", checked=1)

    for suite in ("thinning", "growth", "gadget-ring", "odd-circulant", "psi", "kdd"):
        monkeypatch.setitem(verify.ALL_SUITES, suite, recorder)
    for argv, kwargs in ((["verify", "thinning"], {}),
                         (["verify", "thinning", "--trials", "5"], {"seeds": 5}),
                         (["verify", "growth", "--seed", "3"], {"seed": 3}),
                         (["verify", "growth", "--seed", "3", "--trials", "7"],
                          {"seed": 3, "trials": 7}),
                         (["verify", "growth", "--seed", "3", "--max-order", "9"],
                          {"seed": 3, "max_order": 9}),
                         (["verify", "gadget-ring", "--seed", "5"], {"seed": 5}),
                         (["verify", "odd-circulant", "--n", "6", "--d", "5"],
                          {"max_n": 6, "d": 5}),
                         (["verify", "psi", "--n", "8", "--d", "3"], {"instances": [(8, 3)]}),
                         (["verify", "kdd", "--seed", "4"], {})):
        code, _, _ = run_cli(argv, capsys)
        assert code == 0
        assert calls.pop() == kwargs, argv


def test_suite_flags_name_real_keywords():
    assert set(SUITE_FLAGS) == set(verify.ALL_SUITES)
    for suite, takes in SUITE_FLAGS.items():
        params = inspect.signature(verify.ALL_SUITES[suite]).parameters
        keywords = {RENAMES.get((suite, f), f) for f in takes}
        assert keywords <= set(params) or keywords == {"n", "d"} and "instances" in params, suite
        assert ("seed" in takes) == ("seed" in params), suite


def test_containers_dump(tmp_path, capsys):
    gpath = str(tmp_path / "g.json")
    run_cli(["build", "odd-circulant", "--n", "8", "--d", "3", "-o", gpath], capsys)
    code, out, _ = run_cli(["containers", gpath], capsys)
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0].startswith("record,a,g,t,c_size")
    assert len(lines) == 33  # 32 records + header
    assert all(",true," in line for line in lines[1:])


def test_containers_checks_each_f_once(tmp_path, capsys, monkeypatch):
    gpath = str(tmp_path / "g.json")
    run_cli(["build", "odd-circulant", "--n", "16", "--d", "5", "-o", gpath], capsys)
    checks = []
    check_phi = containers.check_phi

    def counted(*args):
        checks.append(args[1])
        return check_phi(*args)

    monkeypatch.setattr(containers, "check_phi", counted)
    code, out, _ = run_cli(["containers", gpath], capsys)
    assert code == 0
    records = list(counting.enumerate_small_2linked_closed(graph_from_json(json.load(open(gpath))),
                                                          "X"))
    assert len(out.splitlines()) == len(records) + 1
    assert checks == records


# sha256 of the CSVs of the reference circulant step and of two more table
# runs: the Y side, and a non-cyclic group whose orbits have stabilizers.
# Enumeration, preimage counts, the orbit-reduced table and the boundary
# container reuse sets they computed earlier; these digests hold them to the
# bytes of the from-scratch computation.
NON_CYCLIC = ("--group", "Z2xZ2xZ8", "--gens", "(1,0,0),(0,1,0),(0,0,1),(0,0,7),(1,0,2),(1,0,6)")
OC_20_5 = ("odd-circulant", "--n", "20", "--d", "5")
OC_40_9 = ("odd-circulant", "--n", "40", "--d", "9")
PINNED_CSV = {
    (OC_20_5, ("table",)): "7055b67e924308dc2fef17cc9db017abb685a7aa4a62eb8f93e8d376c360869a",
    (OC_20_5, ("table", "--side", "Y")):
        "7055b67e924308dc2fef17cc9db017abb685a7aa4a62eb8f93e8d376c360869a",
    (NON_CYCLIC, ("table",)): "3cf756b8f6885ad8aac174acc478147d7b5871a95a3b658d9f463e0a3d608cba",
    (NON_CYCLIC, ("table", "--side", "Y")):
        "3cf756b8f6885ad8aac174acc478147d7b5871a95a3b658d9f463e0a3d608cba",
    (OC_40_9, ("containers", "--seed", "1")):
        "68f2ce290c5bdd1e6bf60d69887ffdd861b0db56d988b4064697640cbaf411ef",
    (OC_40_9, ("containers", "--seed", "2")):
        "68f2ce290c5bdd1e6bf60d69887ffdd861b0db56d988b4064697640cbaf411ef",
}


def test_circulant_step_outputs_are_pinned(tmp_path, capsys):
    for (build, (command, *flags)), digest in PINNED_CSV.items():
        gpath, out = str(tmp_path / "g.json"), tmp_path / f"{command}.csv"
        assert run_cli(["build", *build, "-o", gpath], capsys)[0] == 0
        code, _, _ = run_cli([command, gpath, *flags, "-o", str(out)], capsys)
        assert code == 0
        assert hashlib.sha256(out.read_bytes()).hexdigest() == digest, (build, command, flags)


def test_dump_edges(tmp_path, capsys):
    gpath = str(tmp_path / "g.json")
    run_cli(["build", "--group", "Z4", "--gens", "1,3", "-o", gpath], capsys)
    code, out, _ = run_cli(["dump-edges", gpath], capsys)
    assert code == 0
    assert set(out.strip().splitlines()) == {"0 1", "0 3", "1 2", "2 3"}


def test_env_seed(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("CAYLEYCOUNT_SEED", "123")
    gpath = str(tmp_path / "g.json")
    code, _, _ = run_cli(["build", "gadget-ring", "--d", "3", "--t", "2", "-o", gpath], capsys)
    assert code == 0
    assert json.load(open(gpath))["provenance"]["seed"] == 123
    # a seed that is not an integer is a usage error, as on the command line
    monkeypatch.setenv("CAYLEYCOUNT_SEED", "abc")
    code, _, err = run_cli(["build", "gadget-ring", "-o", gpath], capsys)
    assert code == 3
    assert "usage" in err and "Traceback" not in err


def test_one_parser_serves_every_call(tmp_path, capsys, monkeypatch):
    gpath = str(tmp_path / "g.json")
    build = ["build", "gadget-ring", "--d", "3", "--t", "2", "-o", gpath]
    assert run_cli(build, capsys)[0] == 0
    # no parser is built after the first call
    def refuse(*args, **kwargs):
        raise AssertionError("a second parser was built")

    monkeypatch.setattr(argparse, "ArgumentParser", refuse)
    # the environment is read at each call
    for env, seed in (("5", 5), ("123", 123), (None, 0), ("5", 5)):
        if env is None:
            monkeypatch.delenv("CAYLEYCOUNT_SEED", raising=False)
        else:
            monkeypatch.setenv("CAYLEYCOUNT_SEED", env)
        assert run_cli(build, capsys)[0] == 0
        data = json.load(open(gpath))
        assert data["provenance"]["seed"] == data["report"]["seed"] == seed
    # a command runs the module's function as it is at the call, so a
    # wrapper installed after the first call sees the next one
    calls = []
    count = cli.cmd_count

    def wrapped(args):
        calls.append(args.graph)
        return count(args)

    monkeypatch.setattr(cli, "cmd_count", wrapped)
    code, out, _ = run_cli(["count", gpath], capsys)
    assert code == 0 and calls == [gpath]
    assert json.loads(out)["report"]["config"] == {
        "command": "count", "seed": 5, "graph": gpath, "budget": 64, "brute_budget": 26,
        "no_crosscheck": False}


def test_oversized_inputs_hit_the_size_budget(tmp_path, capsys):
    # refused before the generator mask or the adjacency is allocated
    for name, data in (("vcount", {"vcount": 10**15, "edges": []}),
                       ("group", {"group": {"factors": [10**8]},
                                  "generators": [[1], [10**8 - 1]]})):
        gpath = tmp_path / f"{name}.json"
        gpath.write_text(json.dumps(data))
        code, _, err = run_cli(["count", str(gpath)], capsys)
        assert code == 2, name
        assert "budget" in err, name
    # a ring of 2t(4d - 2) vertices, and a group order checked before factoring
    for argv in (["build", "--group", "Z100000000", "--gens", "1,99999999"],
                 ["build", "gadget-ring", "--d", "3", "--t", "100000000"],
                 ["build", "--group", "Z2305843009213693951", "--gens", "1,2305843009213693950"],
                 ["verify", "growth", "--trials", "1", "--max-order", str(10**18)]):
        code, _, err = run_cli(argv, capsys)
        assert code == 2, argv
        # one line from `main`, as for every exit on an error
        assert err.startswith("budget exceeded:") and len(err.splitlines()) == 1, argv


def test_enumeration_state_budget(tmp_path, capsys, monkeypatch):
    gpath = str(tmp_path / "g.json")
    run_cli(["build", "odd-circulant", "--n", "8", "--d", "3", "-o", gpath], capsys)
    monkeypatch.setattr(counting, "ENUM_STATE_BUDGET", 4)
    code, out, err = run_cli(["table", gpath], capsys)
    assert code == 2
    assert "budget" in err and out == ""


# -- fuzzing ----------------------------------------------------------------------

# Sizes: small ones that run, and negative and huge ones that must be refused
SIZES = st.one_of(st.integers(-3, 12), st.sampled_from([10**6, 2**62, 10**30]))
JUNK = st.one_of(st.none(), st.booleans(), st.floats(allow_nan=False), st.text(max_size=3),
                 st.dictionaries(st.text(max_size=2), st.integers(), max_size=2))


@st.composite
def graph_documents(draw):
    """JSON documents for a graph file: well-formed small graphs, and the
    same shapes with wrong types, wrong shapes and out-of-range sizes."""
    kind = draw(st.sampled_from(("edges", "group", "junk")))
    if kind == "junk":
        return draw(st.one_of(JUNK, st.lists(JUNK, max_size=3)))
    if kind == "edges":
        vcount = draw(st.one_of(st.integers(0, 10), SIZES, JUNK))
        ids = st.one_of(st.integers(-1, 10), JUNK)
        doc = {"vcount": vcount,
               "edges": draw(st.one_of(st.lists(st.lists(ids, min_size=1, max_size=3),
                                                max_size=12), JUNK))}
        if draw(st.booleans()):
            doc["parts"] = draw(st.one_of(st.lists(st.lists(ids, max_size=6), max_size=3),
                                          st.just([[0, 2, 4], [1, 3, 5]]), JUNK))
        return doc
    factors = draw(st.one_of(st.lists(st.one_of(st.integers(-1, 8), st.just(10**7)),
                                      min_size=1, max_size=2), JUNK))
    width = len(factors) if isinstance(factors, list) else 1
    coords = draw(st.lists(st.lists(st.one_of(st.integers(-9, 9), JUNK), min_size=width,
                                    max_size=width), max_size=3))
    if draw(st.booleans()):         # often symmetric, so that a graph gets built
        coords += [[-x if type(x) is int else x for x in c] for c in coords]
    return {"group": {"factors": factors}, "generators": coords}


def _verify_argv(draw):
    """A suite with caps small enough to run in milliseconds, or values that
    must be refused at once.  The caps are always given, since the defaults
    run for seconds; psi and phi sometimes get half of their pair, and
    lucas a flag it does not take."""
    small = st.integers(-2, 3)
    suite, flags = draw(st.sampled_from((
        ("chain", {"--max-order": small}), ("olson", {"--max-order": small}),
        ("prp", {"--max-order": small}), ("zhao", {"--max-vertices": small}),
        ("thinning", {"--trials": st.integers(-2, 1)}),
        ("lovasz-stein", {"--trials": small}),
        ("growth", {"--trials": st.integers(-2, 2),
                    "--max-order": st.one_of(st.integers(-2, 64), SIZES)}),
        ("psi", {"--n": st.integers(-1, 10), "--d": st.integers(-1, 5)}),
        ("phi", {"--n": st.integers(-1, 10), "--d": st.integers(-1, 5)}),
        ("odd-circulant", {"--n": st.integers(-1, 8), "--d": st.integers(-1, 5)}),
        ("kdd", {}), ("lucas", {"--n": small}))))
    argv = ["verify", suite]
    for flag, values in flags.items():
        argv += [flag, str(draw(values))]
    if suite in ("psi", "phi") and draw(st.booleans()):
        del argv[-2:]
    return argv


def _build_argv(draw):
    kind = draw(st.sampled_from(("gadget-ring", "odd-circulant", "group")))
    if kind == "gadget-ring":
        return ["build", kind, "--d", str(draw(st.sampled_from([-1, 2, 3, 10**6]))),
                "--t", str(draw(st.one_of(st.integers(-1, 2), st.just(10**9))))]
    if kind == "odd-circulant":
        return ["build", kind, "--n", str(draw(SIZES)), "--d",
                str(draw(st.one_of(st.integers(-1, 7), st.just(10**6 + 1))))]
    group = draw(st.sampled_from(["Z8", "Z2xZ4", "Z0", "Zx", "Z100000000", '{"factors": [6]}',
                                  '{"factors": "6"}', "{bad"]))
    gens = draw(st.sampled_from(["1,7", "(1,0),(1,0)", "(0,1),(0,3)", "1", "x", "(1,", ""]))
    return ["build", "--group", group, "--gens", gens] + (
        ["--symmetrize"] if draw(st.booleans()) else [])


@st.composite
def cli_calls(draw, tmp):
    """(argv, graph document or None) for one call of `cli.main`."""
    doc = None
    choice = draw(st.sampled_from(("graph", "graph", "graph", "verify", "build")))
    if choice == "verify":
        argv = _verify_argv(draw)
    elif choice == "build":
        argv = _build_argv(draw)
    else:
        command = draw(st.sampled_from(("count", "table", "containers", "dump-edges")))
        target = draw(st.sampled_from(("file", "file", "file", "missing", "directory", "text")))
        doc = draw(graph_documents()) if target == "file" else None
        path = {"file": tmp / "g.json", "missing": tmp / "missing.json", "directory": tmp,
                "text": tmp / "notes.txt"}[target]
        argv = [command, str(path)]
        if command in ("table", "containers") and draw(st.booleans()):
            argv += ["--side", draw(st.sampled_from(("X", "Y", "Z")))]
        if command == "count" and draw(st.booleans()):
            argv += ["--budget", str(draw(st.one_of(st.integers(-1, 40), SIZES)))]
        if command == "count" and draw(st.booleans()):
            argv += ["--brute-budget", str(draw(st.integers(-1, 14)))]
    if draw(st.booleans()):
        argv += ["-o", str(draw(st.sampled_from((tmp / "out.txt", tmp / "no" / "out.txt", tmp))))]
    if draw(st.booleans()):
        argv += ["--seed", draw(st.sampled_from(("0", "7", "-1", "x")))]
    return argv, doc


@settings(max_examples=250, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(st.data())
def test_cli_never_raises_on_generated_input(tmp_path, capsys, data):
    # Every input here is wrong or well inside the proven regime, so the
    # codes are 0 (done), 2 (a size budget) or 3 (usage); a 1 would report a
    # violation of a fact that holds, and an exception is a traceback
    (tmp_path / "notes.txt").write_text("not json\n")
    argv, doc = data.draw(cli_calls(tmp_path))
    if doc is not None:
        (tmp_path / "g.json").write_text(json.dumps(doc))
    code, _, err = run_cli(argv, capsys)
    assert code in (0, 2, 3), (argv, doc, err)
    assert "Traceback" not in err
    if code == 3:
        assert any(line.startswith(("error:", "usage:")) for line in err.splitlines()), err
