"""Workload ``tiling``: certified distance-minimizing verticals on grids.

Each job builds ``build_grid(b, m, m)`` and uses it plain, refined with
``add_diagonals`` or glued with ``glue_to_Rb``.  A ``single`` job then runs
one ``certify_vertical_minimizing`` over the longest row span the window
allows; a ``multi`` job runs three, over a third, two thirds and all of
it, plus ``discrete_distance`` between seeded corner pairs.  Every
certificate must pass with distance 2nb; two corners on one column line
must be exactly 2b per row apart (the certified vertical), and any two
corners at least 2b per row and at most the lattice-path length.  Every job
also solves and closes the grid's pentagon.

Most windows are small; 12 are 27-29 cells wide and one is 45 cells wide,
so that the slowest tenth of the jobs are the large ones.  With one and with
several queries per build, work moved between construction and queries
shows either way.

Glued jobs also check the genus of the glued window: each glued pair of
holes adds one handle, so the genus is rows * (cols // 2).  ``genus()``
reports less today, because ``glue_to_Rb`` merges the two ``a`` edges that
meet at the midpoint shared by a glued pair into one edge on four faces;
glued jobs carry that known defect.
"""

from __future__ import annotations

from harness import CheckFailed, Tracer

TOL = 1e-9
VARIANTS = ("plain", "refined", "glued")
MODES = ("single", "multi")

KNOWN_DEFECTS = {"glue_genus": ("glue_genus",)}

# (window sizes, jobs per variant and mode)
SIZES = {
    "small": ([4, 5, 6], 15),
    "medium": ([27, 28, 29], 2),
}
# one window of the largest size: every extra one lengthens the pass, and
# fewer passes per run make the median pass time less steady
LARGE = [(45, "plain", "multi")]


def _job(rng, m, variant, mode):
    if mode == "single":
        spans = [m - 2]
        pairs = []
    else:
        third = max(1, (m - 2) // 3)
        spans = [third, 2 * third, m - 2]
        pairs = []
        for _ in range(3):
            col = rng.randint(0, m)
            r1, r2 = rng.sample(range(1, m), 2)
            pairs.append(((r1, col), (r2, col)))
        pairs.append(((rng.randint(1, m - 1), rng.randint(0, m)),
                      (rng.randint(1, m - 1), rng.randint(0, m))))
    return {
        "kind": variant,
        "defect": "glue_genus" if variant == "glued" else None,
        "m": m,
        "b": rng.uniform(0.9, 2.0),
        "mode": mode,
        "spans": spans,
        "pairs": pairs,
    }


def generate(rng, tiny: bool = False) -> list:
    jobs = []
    for windows, per_combo in SIZES.values():
        count = 0
        for variant in VARIANTS:
            for mode in MODES:
                for _ in range(1 if tiny else per_combo):
                    jobs.append(_job(rng, windows[count % len(windows)], variant, mode))
                    count += 1
        if tiny:
            break
    for m, variant, mode in [] if tiny else LARGE:
        jobs.append(_job(rng, m, variant, mode))
    rng.shuffle(jobs)
    return jobs


def warm_up(lib, jobs) -> None:
    small = sorted(jobs, key=lambda j: j["m"])
    for variant in VARIANTS:
        job = next(j for j in small if j["kind"] == variant)
        try:
            run_job(job, lib, Tracer(False), {})
        except CheckFailed as exc:
            if exc.reason not in KNOWN_DEFECTS.get(job["defect"], ()):
                raise


def run_job(job, lib, tr, state) -> None:
    ts, hc = lib.tiled_surface, lib.hyp_core
    m, b = job["m"], job["b"]
    t = tr.call("tiled_surface.build_grid", ts.build_grid, b, m, m)
    if tr.enabled:
        tr.count("tiled_surface.build_grid.vertices", len(t.vertices()))
        tr.count("tiled_surface.build_grid.edges", len(t.edges))
    if job["kind"] == "refined":
        t = tr.call("tiled_surface.add_diagonals", ts.add_diagonals, t)
    elif job["kind"] == "glued":
        t = tr.call("tiled_surface.glue_to_Rb", ts.glue_to_Rb, t)

    pentagon = tr.call("hyp_core.solve_pentagon", hc.solve_pentagon, b)
    residual = tr.call("hyp_core.pentagon_closure_residual", hc.pentagon_closure_residual, pentagon)
    if not residual <= TOL:
        raise CheckFailed("pentagon_closure", repr(residual))

    for n in job["spans"]:
        cert = tr.call("tiled_surface.certify_vertical_minimizing",
                       ts.certify_vertical_minimizing, t, n)
        if not (cert.passes and abs(cert.distance - 2.0 * n * b) <= TOL):
            tr.count("tiled_surface.certify_vertical_minimizing.failed")
            raise CheckFailed("certificate", f"n={n}: {cert}")

    for (r1, c1), (r2, c2) in job["pairs"]:
        d = tr.call("tiled_surface.discrete_distance", ts.discrete_distance,
                    t, ("C", r1, c1), ("C", r2, c2))
        rows = 2.0 * b * abs(r1 - r2)
        lattice = rows + 2.0 * b * abs(c1 - c2)
        if c1 == c2 and not abs(d - rows) <= TOL:
            raise CheckFailed("vertical_distance", f"{(r1, c1)}-{(r2, c2)}: {d} != {rows}")
        if not rows - TOL <= d <= lattice + TOL:
            raise CheckFailed("distance_bounds", f"{(r1, c1)}-{(r2, c2)}: {d}")

    if job["kind"] == "glued":
        genus = tr.call("tiled_surface.genus", t.genus)
        if genus != m * (m // 2):
            raise CheckFailed("glue_genus", f"{m}x{m}: genus {genus}, expected {m * (m // 2)}")
