"""How the percentile threshold trades detection rate against false
alarms.

The detection cutoff is the rho-th percentile of benign training errors:
small rho flags almost everything (high TPR, high FPR), large rho flags
almost nothing.
"""

import numpy as np

from fedsg import FedConfig, SynthSpec, generate_synthetic, run_fedsg
from fedsg.detection import evaluate, fit_threshold, score_matrix

spec = SynthSpec(seed=3)
shards, test, labels, _ = generate_synthetic(spec)
cfg = FedConfig(rounds=100, local_steps=5,
                sample_fraction=0.5, k=3, eta=1e-3, seed=3)
pair, _ = run_fedsg(cfg, shards)

train_errors = np.concatenate([score_matrix(pair.u, s) for s in shards])
test_errors = score_matrix(pair.u, test)

print(f"{'rho':>5} {'tau':>8} {'TPR':>6} {'FPR':>6} {'F1':>6}")
for rho in (1, 5, 10, 18, 30, 50, 80, 95, 100):
    tau = fit_threshold(train_errors, rho)
    rep = evaluate(test_errors, labels, tau)
    print(f"{rho:>5} {tau:>8.4f} {rep.tpr:>6.3f} {rep.fpr:>6.3f} {rep.f1:>6.3f}")
