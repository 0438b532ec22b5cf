import hashlib
import inspect
import json
import os

from cayleycount import counting, verify
from cayleycount.cli import RENAMES, SUITE_FLAGS, main


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
    code, _, _ = run_cli(["build", "--group", "Z6"], capsys)
    assert code == 3
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
        assert f"verify {argv[1]}:" in err, argv
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


# sha256 of the reference circulant step's CSVs.  Enumeration, preimage
# counts and the boundary container reuse sets they computed earlier; these
# digests hold them to the bytes of the from-scratch computation.
PINNED_CSV = {
    ("table", 20, 5, None): "7055b67e924308dc2fef17cc9db017abb685a7aa4a62eb8f93e8d376c360869a",
    ("containers", 40, 9, 1): "68f2ce290c5bdd1e6bf60d69887ffdd861b0db56d988b4064697640cbaf411ef",
    ("containers", 40, 9, 2): "68f2ce290c5bdd1e6bf60d69887ffdd861b0db56d988b4064697640cbaf411ef",
}


def test_circulant_step_outputs_are_pinned(tmp_path, capsys):
    for (command, n, d, seed), digest in PINNED_CSV.items():
        gpath, out = str(tmp_path / f"oc{n}_{d}.json"), tmp_path / f"{command}.csv"
        run_cli(["build", "odd-circulant", "--n", str(n), "--d", str(d), "-o", gpath], capsys)
        seeded = [] if seed is None else ["--seed", str(seed)]
        code, _, _ = run_cli([command, gpath, *seeded, "-o", str(out)], capsys)
        assert code == 0
        assert hashlib.sha256(out.read_bytes()).hexdigest() == digest, (command, n, d, seed)


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
                 ["build", "--group", "Z2305843009213693951", "--gens", "1,2305843009213693950"]):
        code, _, err = run_cli(argv, capsys)
        assert code == 2, argv
        assert "budget" in err, argv


def test_enumeration_state_budget(tmp_path, capsys, monkeypatch):
    gpath = str(tmp_path / "g.json")
    run_cli(["build", "odd-circulant", "--n", "8", "--d", "3", "-o", gpath], capsys)
    monkeypatch.setattr(counting, "ENUM_STATE_BUDGET", 4)
    code, out, err = run_cli(["table", gpath], capsys)
    assert code == 2
    assert "budget" in err and out == ""
