"""Durability smoke check: kill and recover a TCP site, end to end.

``python -m repro.smoke durability`` (needs ``PYTHONPATH=src:.``)
stands up a three-site TCP deployment twice over the same workload —
once as a *victim* whose mid-tier site is killed mid-workload and
restarted from its WAL + checkpoint, once as a never-killed *control*
— and asserts

* the victim's recovered partition is byte-identical to the
  control's (``partition_fingerprint``), and
* the post-recovery query suite answers byte-identically.

The victim's durability directory (WAL + checkpoints, as left after
the run) is copied under the artifacts directory and the summary
carries the recovery counters, so CI can archive what recovery actually
consumed.
"""

import os
import shutil
import tempfile

from repro.smoke import (
    G0_S1,
    THREE_SITE_QUERIES as QUERIES,
    three_site_document,
    three_site_plan,
)

G0_S2 = (("region", "R"), ("group", "g0"), ("sensor", "s2"))


def _run(directory, kill):
    from repro.durability import DurabilityConfig, partition_fingerprint
    from repro.net.tcpruntime import TcpCluster
    from repro.xmlkit import serialize

    config = DurabilityConfig(directory=directory, sync_every=4,
                              checkpoint_interval=3)
    cluster = TcpCluster(three_site_document(), three_site_plan(),
                         durability=config,
                         clock=lambda: 1000.0)
    try:
        mid = cluster.cluster.agents["mid"].database
        mid.apply_update(G0_S1, values={"value": "7"})
        cluster.cluster.query(QUERIES[0])  # spread cached copies
        mid.apply_update(G0_S2, values={"value": "9"})

        recovery = None
        if kill:
            cluster.kill_site("mid")
            agent = cluster.restart_site("mid")
            recovery = agent.subsystem("durability").metrics()

        cluster.cluster.agents["mid"].database.apply_update(
            G0_S1, values={"value": "11"})
        answers = {}
        for query in QUERIES:
            results, _, outcome = cluster.cluster.query(query)
            if not outcome.complete:
                raise SystemExit(f"FAIL: incomplete answer for {query}")
            answers[query] = [
                serialize(r, sort_attributes=True, use_cache=False)
                for r in results]
        fingerprints = {
            site: partition_fingerprint(agent.database)
            for site, agent in cluster.cluster.agents.items()}
        return answers, fingerprints, recovery
    finally:
        cluster.close()


def run(artifacts):
    scratch = tempfile.mkdtemp(prefix="durability-smoke-")
    victim_dir = os.path.join(scratch, "victim")
    control_dir = os.path.join(scratch, "control")
    try:
        victim_answers, victim_fps, recovery = _run(victim_dir, kill=True)
        control_answers, control_fps, _ = _run(control_dir, kill=False)

        problems = []
        if victim_answers != control_answers:
            problems.append("post-recovery answers differ from control")
        for site in control_fps:
            if victim_fps[site] != control_fps[site]:
                problems.append(f"partition fingerprint differs: {site}")
        if not recovery or recovery["recoveries"] != 1:
            problems.append("victim did not record exactly one recovery")

        # The victim's durability directory as the run left it --
        # what a real recovery would read.
        kept = os.path.join(artifacts, "victim-durability")
        shutil.rmtree(kept, ignore_errors=True)
        shutil.copytree(victim_dir, kept)
        summary = {"recovery_counters": recovery,
                   "queries": QUERIES,
                   "sites": sorted(control_fps),
                   "byte_identical": not problems}
        if recovery:
            summary["headline"] = (
                f"site 'mid' killed and recovered "
                f"({recovery['last_recovery_replayed']} records replayed, "
                f"{recovery['replay_skipped']} covered by the checkpoint); "
                f"answers and partitions byte-identical to control.")
        return problems, summary
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
