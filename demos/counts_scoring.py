"""Scoring externally measured counts: import, accuracy table, series stats.

Counter data collected outside the toolkit enters as ``.counts`` text
(one event=value per line).  A real/proxy pair yields per-metric accuracy
and category floors; many pairs yield correlation and mean relative error
per metric.
"""

import numpy as np

import proxybench as pb

library = pb.default_library()
rng = np.random.default_rng(7)

# ----------------------------------------------------------------------
# Round-trip a counts document.

document = """\
# measured on the reference machine
cycles=913000000
instructions=510000000
branch_insts=91000000
branch_misses=2400000
l1d_accesses=176000000
l1d_misses=9100000
"""
imported = pb.parse_counts(document)
print("imported", len(imported.counts), "events, provenance:", imported.provenance)
print(pb.format_counts(imported))

# ----------------------------------------------------------------------
# Score one real/proxy pair metric by metric.

real_program = pb.ProxyProgram((("mem_stride512", 90_000), ("br_t384", 120_000),
                                ("mix_mul16", 60_000), ("fpmix_add16", 30_000)))
real = pb.predict_events(real_program, library)
proxy = pb.SimulatedMachine(library, pb.NoiseModel.uniform(0.05, seed=3)).measure(real_program)

real_metrics = pb.compute_all_metrics(real, pb.METRICS)
proxy_metrics = pb.compute_all_metrics(proxy, pb.METRICS)
per_metric = {m: pb.accuracy(real_metrics[m], proxy_metrics[m]) for m in real_metrics}
print("metric accuracies under 5% measurement noise:")
for metric_id, value in per_metric.items():
    print(f"  {metric_id:<18} {value:.4f}")
floors = pb.category_accuracy(per_metric, pb.METRICS)
print("category floors:", {c: round(v, 4) for c, v in sorted(floors.items())})

# ----------------------------------------------------------------------
# Fifteen pairs give one correlation and one mean-error figure per metric.
# Each program holds one fp block, so fp_ratio and vec_ratio are never zero
# (relative error against a zero value is undefined).

plain_ids = [i for i in library.ids() if not i.startswith("fpmix")]
fp_ids = [i for i in library.ids() if i.startswith("fpmix")]
pairs = []
for i in range(15):
    blocks = [*rng.choice(plain_ids, size=5, replace=False), rng.choice(fp_ids)]
    program = pb.ProxyProgram(tuple((str(b), int(rng.integers(10_000, 100_000)))
                                    for b in blocks))
    x = pb.compute_all_metrics(pb.predict_events(program, library), pb.METRICS)
    noisy = pb.SimulatedMachine(library, pb.NoiseModel.uniform(0.08, seed=i)).measure(program)
    y = pb.compute_all_metrics(noisy, pb.METRICS)
    pairs.append((x, y))

print("\nper-metric agreement across 15 workloads:")
print(f"{'metric':<18} {'rho':>7} {'mean err':>9}")
for definition in pb.METRICS:
    series = pb.ComparisonSeries(
        tuple(x[definition.id] for x, _ in pairs),
        tuple(y[definition.id] for _, y in pairs),
    )
    rho = pb.pearson(series)
    err = pb.mean_abs_rel_error(series)
    print(f"{definition.id:<18} {rho:>7.3f} {err:>9.4f}")
