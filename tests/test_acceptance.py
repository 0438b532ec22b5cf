"""Acceptance gate: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines as they complete.  The whole module takes a few minutes; the engine
equivalence sweep dominates.
"""

from cayleycount import verify


def _run(result):
    print(result.line(), flush=True)
    assert result.passed, result.details
    return result


def test_criterion_01_engine_equivalence():
    # branching engine == 2^V brute force on every corpus graph <= 24 vertices
    _run(verify.sweep_engine_equivalence(max_order=16))


def test_criterion_02_lucas_cycles():
    # i(C_n) equals the transfer-matrix Lucas value for 3 <= n <= 30
    _run(verify.sweep_lucas_cycles())


def test_criterion_03_complete_bipartite():
    # i(K_{d,d}) = 2^(d+1) - 1 for d <= 6
    _run(verify.sweep_complete_bipartite())


def test_criterion_04_zhao():
    # i(G x K2) >= i(G)^2 on every corpus graph <= 14 vertices
    res = _run(verify.sweep_zhao(14))
    assert res.details["i(C10)"] == 123
    assert res.details["i(C5)"] == 11


def test_criterion_05_and_06_side_sums_and_cluster():
    # i(G) <= both doubled side sums, and the rigorous cluster bound,
    # on every connected bipartite corpus graph with n <= 14
    _run(verify.sweep_side_sums(max_order=16))


def test_criterion_07_olson():
    # stabilize-or-expand for every (M, N) over every group of order <= 10
    _run(verify.sweep_olson(10))


def test_criterion_08_prp():
    # witnesses exist for every (M, D) with |M|, |D| <= 4 over orders <= 12
    _run(verify.sweep_prp(max_order=12))


def test_criterion_09_chain():
    # valid chains found exhaustively for |M| <= 8, |D| <= 3, k <= 2, c = 4
    _run(verify.sweep_chain(max_order=12))


def test_criterion_10_growth():
    # 10^4 random symmetric-generator growth instances, zero violations
    _run(verify.sweep_growth(trials=10000, max_order=64, seed=0))


def test_criterion_11_psi_suite():
    # psi approximation valid on every record of the three band instances,
    # with the size inequality whenever psi < d
    _run(verify.sweep_psi(verify.PSI_CORPUS))


def test_criterion_12_phi_suite():
    # sampled phi approximations valid for every record across 5 seeds
    res = _run(verify.sweep_phi(verify.PSI_CORPUS))
    for key, ratio in res.details.items():
        num, den = ratio.split("/")
        assert int(num) >= 0.99 * int(den), (key, ratio)


def test_criterion_13_lovasz_stein():
    # greedy cover within (|B|/a)(1 + ln b) on 10^3 random instances
    _run(verify.sweep_lovasz_stein(trials=1000, seed=0))


def test_criterion_14_odd_circulant_structure():
    # interval closures, difference-2 neighborhoods, table supported on t = d
    _run(verify.sweep_odd_circulant(max_n=12, d=3))


def test_criterion_15_gadget_ring():
    # 3-regular, edge-connectivity >= 2, maximal sets from every valid
    # interval family, the 2^(n+1) bound, and growth of log2 i - n with t
    res = _run(verify.sweep_gadget_ring(d=3, seed=0))
    excesses = [res.details[k]["log2_i_minus_n"] for k in ("t=2", "t=3")]
    assert excesses[0] < excesses[1]


def test_criterion_16_thinning():
    # symmetry+generation on 100/100 seeds; window and doubling on >= 90
    res = _run(verify.sweep_thinning(seeds=100))
    assert res.details["exact"] == 100
    assert res.details["window"] >= 90
    assert res.details["doubling"] >= 90


def test_criterion_17_main_trend():
    # max i / 2^(n+1) over connected instances on 2n <= 16 vertices;
    # bipartite high-degree instances stay within ratio 4, complete
    # bipartite ones sit exactly at (2^(n+1) - 1) / 2^(n+1)
    res = _run(verify.sweep_main_trend(16))
    assert res.details["max_bipartite_ratio"] <= 4
    print(f"  max ratio {res.details['max_ratio']:.4f} at {res.details['max_instance']}; "
          f"bipartite max {res.details['max_bipartite_ratio']:.4f} "
          f"at {res.details['max_bipartite_instance']}")
