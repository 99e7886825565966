"""Pinned digests of whole runs: metrics and event-log bytes.

A change that only makes the simulator faster must leave both digests as
they are. A change that alters simulated behaviour on purpose updates them
and says why.
"""

import hashlib
import io
import json

from dataclasses import replace

import pytest

from qempar import ScenarioConfig, run

# A dense field (150 nodes at the density of 300 in the default square) on
# which qempar splits traffic over three disjoint paths, the same field under
# the literal scoring modes, strict progress and Poisson arrivals, and the
# default field under the min-hop baseline.
DENSE_QEMPAR = ScenarioConfig(
    node_count=150, field_width=282.8, field_height=282.8,
    source_x=212.1, source_y=212.1, duration_s=2.0, rate_pkts_per_s=30.0,
    router="qempar")
DENSE_LITERAL = replace(
    DENSE_QEMPAR, appr_mode="literal", interference_mode="literal",
    progress_mode="strict", traffic_model="poisson")
DEFAULT_MINHOP = ScenarioConfig(duration_s=2.0, router="minhop")
# The default field at 100 pkt/s under qempar: on seed 16 nodes are offered
# a fragment at the instant their own hop ends, before that hop's end event
# is handled, so the run pins how such ties resolve.
DEFAULT_TIES = ScenarioConfig(duration_s=1.0, rate_pkts_per_s=100.0, router="qempar")
# The same run with a 0.1 s reassembly deadline: 6 packets delivered and 94
# expired, so the log holds all six event kinds, deadline-expired included.
EXPIRING = replace(DEFAULT_TIES, reassembly_deadline_s=0.1)
EXPIRING_DIGEST = "047e6744b876073ba7e74dc3547cca49a3e01c7f61c14a67c6b56e6dda9ed8b2"


def digest_of(metrics, log_text):
    """sha256 of the sorted-key RunMetrics JSON, a newline, then the log."""
    digest = hashlib.sha256(json.dumps(metrics.to_dict(), sort_keys=True).encode())
    digest.update(b"\n")
    digest.update(log_text.encode())
    return digest.hexdigest()


def run_digest(config, seed):
    log = io.StringIO()
    metrics = run(config, seed, event_log=log)
    return metrics, digest_of(metrics, log.getvalue())


@pytest.mark.parametrize("config, seed, path_hops, expected", [
    (DENSE_QEMPAR, 7, (10, 12, 13),
     "282457333cf38785f51ac810eba3f7cb1ffe4cbdb80cdc513d09ffe2a90ca84d"),
    (DEFAULT_MINHOP, 1, (14,),
     "142c7a5425436d5eb1b35cac295cb2cfd050a422328bd7dbcd5ac5f6a6102db4"),
    (DENSE_LITERAL, 7, (10, 12, 13),
     "9776fa4c82b44dfcb74ddd5973f1532dee1bca9c7af0996fa37dc5bff7f82e54"),
    (DEFAULT_TIES, 16, (14,),
     "8eba58e5d3ac997cbdc8b5f8d81d9c46413164e72a463cb4c5ae6165f462f8fd"),
    (EXPIRING, 16, (14,), EXPIRING_DIGEST),
])
def test_run_bytes_are_pinned(config, seed, path_hops, expected):
    metrics, digest = run_digest(config, seed)
    assert metrics.path_hops == path_hops
    assert digest == expected


def _refuse(*args, **kwargs):
    raise AssertionError("the general JSON encoder ran inside a logged run")


def test_logged_run_writes_no_line_through_the_json_encoder(monkeypatch):
    """Event lines come from one fixed format, not json.JSONEncoder. A bound
    encode kept from import time would dodge a patch of encode alone, so
    iterencode, which encode calls for every record, is refused as well."""
    log = io.StringIO()
    with monkeypatch.context() as patch:
        patch.setattr(json.JSONEncoder, "encode", _refuse)
        patch.setattr(json.JSONEncoder, "iterencode", _refuse)
        metrics = run(EXPIRING, 16, event_log=log)
    kinds = {json.loads(line)["kind"] for line in log.getvalue().splitlines()}
    assert kinds == {"packet-born", "hop-start", "hop-complete", "hop-failed",
                     "fragment-delivered", "deadline-expired"}
    assert digest_of(metrics, log.getvalue()) == EXPIRING_DIGEST
