"""Time one cold set-up of charmax in a fresh interpreter.

Usage: python3 setup_probe.py SRC_DIR

Imports charmax from SRC_DIR, loads the four bundled problems and builds
their implicit solutions, then prints the elapsed seconds and, after
them, the time of hostspeed's reference computation in this
interpreter.
"""

import sys
import time

PROBLEMS = ("ode_quadratic", "circular", "burgers_ramp", "burgers_reciprocal")


def main(src: str) -> float:
    start = time.perf_counter()
    sys.path.insert(0, src)
    import charmax

    for name in PROBLEMS:
        bundle = charmax.load_problem_bundle(charmax.problem_path(name))
        charmax.implicit_solution_for_problem(bundle.problem, bundle.data,
                                              bundle.rho, bundle.f)
    return time.perf_counter() - start


if __name__ == "__main__":
    elapsed = main(sys.argv[1])
    import hostspeed

    print(repr(elapsed), repr(hostspeed.chunk_s()))
