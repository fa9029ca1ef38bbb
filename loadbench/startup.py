"""One program start-up, timed from outside by the benchmark: imports,
construction and a small warm-up call, then exit.

    python3 loadbench/startup.py solve-multiple|solve-single|replay-mesh
"""

import sys


def main(kind: str) -> None:
    from repro.core.policies import Policy
    from repro.instances import isp_mesh, random_tree

    if kind in ("solve-multiple", "solve-single"):
        from repro.service import PlacementService, SolveRequest

        policy = Policy.MULTIPLE if kind == "solve-multiple" else Policy.SINGLE
        with PlacementService(cache_size=4) as svc:
            inst = random_tree(50, 100, capacity=50, max_arity=4, policy=policy, seed=0)
            if not svc.solve(SolveRequest(instance=inst)).ok:
                raise SystemExit("warm-up solve failed")
    elif kind == "replay-mesh":
        from repro.replay import run_replay

        run_replay(isp_mesh(60, capacity=300, seed=3), "diurnal+flash", horizon=2)
    else:
        raise SystemExit(f"unknown start-up kind {kind!r}")


if __name__ == "__main__":
    main(sys.argv[1])
