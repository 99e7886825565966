"""
One simulated scenario, end to end
==================================

Run the same 100-node scenario with both routers, compare the headline
metrics, and peek at the event log that makes every run auditable.
"""

import io
import json
from dataclasses import replace

from qempar import ScenarioConfig, run

# The default scenario: 100 nodes on 400 m x 400 m, 512-byte packets cut
# into four fragments, 10 packets/s for a 20 s horizon here.
config = ScenarioConfig(duration_s=20.0, rate_pkts_per_s=10.0)

print(f"{'router':>7}  {'paths':>5}  {'delivered':>9}  {'delay (ms)':>10}  "
      f"{'energy/pkt (mJ)':>15}  {'out of order':>12}")
for router in ("qempar", "minhop"):
    metrics = run(replace(config, router=router), seed=3)
    print(f"{router:>7}  {metrics.n_paths:>5}  "
          f"{metrics.delivered:>4}/{metrics.generated:<4}  "
          f"{metrics.mean_delay_s * 1e3:>10.2f}  "
          f"{metrics.mean_energy_j * 1e3:>15.3f}  "
          f"{metrics.out_of_order_ratio:>12.3f}")

# The fragmenting router wins on delay even over a single path because
# fragments pipeline: while fragment 1 crosses hop 3, fragment 2 is
# already on hop 2 and fragment 3 on hop 1. A relay then receives while it
# sends, which the model allows (README, "MAC model").

# Every run can emit a JSON-lines event log. Two runs of the same
# (config, seed) produce byte-identical logs.
log = io.StringIO()
metrics = run(config, seed=3, event_log=log)
lines = log.getvalue().splitlines()
print(f"\nevent log: {len(lines)} events; fragment 1 of the first packet:")
for line in lines:
    event = json.loads(line)
    if event["packet"] == 0 and event["seq"] in (None, 1) and event["kind"] != "hop-start":
        print(f"  t={event['t']:.6f}  {event['kind']:<18} "
              f"node={event['node']} seq={event['seq']}")
    if event["kind"] == "fragment-delivered" and event["packet"] == 0:
        break

# An exact conservation identity: initial energy minus residual energy
# equals the energy spent, the sum of every node's spent energy (the
# identity holds while no debit is clamped).
drained = config.node_count * config.initial_energy_j - metrics.residual_total_j
print(f"\nenergy drained  {drained:.9f} J")
print(f"ledger total    {metrics.ledger_total_j:.9f} J")
print(f"clamped debits  {metrics.clamped_debits}")
