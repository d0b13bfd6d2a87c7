"""Record the deblur16 reference energies the benchmark checks against.

For each pool seed this solves the deblur instance to tolerance exactly as
the benchmark does, then continues deterministically from the exit state
for ``CONTINUATION - 1`` times the exit iteration count with no stopping
test (the construction of acceptance criterion 12, with a horizon of 10x
instead of 100x).  The continued run's primal surrogate is the reference.

Usage: python3 perfbench/make_references.py
Takes about a minute per seed on one core; rewrites deblur_references.json
with the whole pool, ``POOL``.
"""

import json

import env

# 2024 is the demo's own seed, the instance acceptance criterion 12 uses.
POOL = (2024, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11)
CONTINUATION = 10


def main():
    env.prepare()
    from monosplit import solver
    from monosplit.minimization import primal_surrogate

    import workloads

    instances = []
    for seed in POOL:
        demo, policy = workloads.deblur_setup(seed)
        final, trace, status = workloads.deblur_solve(demo.system, demo, policy)
        if status != "converged":
            raise SystemExit(f"seed {seed}: {status} after {final.n} iterations")
        exit_energy = primal_surrogate(demo.min_spec, final.x1, final.x2)
        long_state, _, _ = solver.solve(
            demo.system, final, policy, tol=0.0,
            max_iter=(CONTINUATION - 1) * final.n, trace_every=10**9)
        reference = primal_surrogate(demo.min_spec, long_state.x1, long_state.x2)
        entry = {
            "seed": seed,
            "exit_iterations": final.n,
            "exit_energy": exit_energy,
            "reference_iterations": long_state.n,
            "reference_energy": reference,
        }
        print(json.dumps(entry), flush=True)
        instances.append(entry)
    doc = {
        "size": workloads.DEBLUR_SIZE,
        "tol": workloads.DEBLUR_TOL,
        "continuation_factor": CONTINUATION,
        "instances": instances,
    }
    with open(workloads.REFERENCES, "w") as fh:
        json.dump(doc, fh, indent=1)
        fh.write("\n")


if __name__ == "__main__":
    main()
