"""Learn a shared low-rank subspace federatedly and compare against the
centralized truncated SVD.

A single client with full participation should drive the objective down
to the Eckart-Young tail energy: the best any rank-k model can do.
"""

import numpy as np

from fedsg import FedConfig, run_fedsg, truncated_svd

rng = np.random.default_rng(0)
x = rng.standard_normal((20, 20))

k = 3
t = truncated_svd(x, k)
tail = np.linalg.norm(x - t.u @ np.diag(t.sigma) @ t.v.T) ** 2
print(f"centralized rank-{k} SVD tail energy: {tail:.4f}")

cfg = FedConfig(rounds=500, local_steps=5, sample_fraction=1.0,
                k=k, eta=1e-3, seed=0)
pair, traces = run_fedsg(cfg, [x])

print(f"federated loss after {cfg.rounds} rounds: "
      f"{traces[-1].global_loss:.4f}")
print(f"ratio to optimum: {traces[-1].global_loss / tail:.4f}")
print("loss every 100 rounds:",
      [f"{traces[i].global_loss:.1f}" for i in range(0, 500, 100)])
