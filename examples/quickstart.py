#!/usr/bin/env python3
"""Quickstart: build an SD-Index and answer a few SD-Queries.

The SD-Query asks for points that are *similar* to the query on the attractive
dimensions and *distant* from it on the repulsive dimensions — the scoring
function of Ranu & Singh (VLDB 2011).  This script builds the index over a small
synthetic dataset, runs a query, compares the answer against a brute-force scan,
and shows the runtime knobs (k and weights) in action.

Run with:  python examples/quickstart.py
"""

from __future__ import annotations

import numpy as np

from repro import SDIndex, SDQuery, sd_score
from repro.baselines import SequentialScan


def main() -> None:
    rng = np.random.default_rng(42)

    # A dataset of 20,000 points with four dimensions.  We will treat the first
    # two dimensions as repulsive (we want results far from the query there) and
    # the last two as attractive (we want results close to the query there).
    data = rng.random((20_000, 4))
    repulsive = [0, 1]
    attractive = [2, 3]

    print("Building the SD-Index ...")
    index = SDIndex.build(data, repulsive=repulsive, attractive=attractive)
    stats = index.stats()
    print(f"  indexed {stats.num_points} points, "
          f"{stats.num_angles} projection angles, "
          f"~{stats.memory_mb:.1f} MB\n")

    # --- a first query --------------------------------------------------------
    query_point = data[17]  # use an existing point as the query object
    query = SDQuery.simple(query_point, repulsive, attractive, k=5)
    result = index.query(query)

    print("Top-5 answers for an unweighted query on point #17:")
    for match in result:
        print(f"  row {match.row_id:>6}  score={match.score:+.4f}  point={np.round(match.point, 3)}")
    print(f"  (examined {result.candidates_examined} candidates "
          f"out of {len(data)} points)\n")

    # --- verify against the exact sequential scan -----------------------------
    oracle = SequentialScan(data, repulsive, attractive).query(query)
    assert result.same_scores(oracle), "index answer differs from the exact scan!"
    print("The answer matches an exact sequential scan.\n")

    # --- runtime weights -------------------------------------------------------
    # Emphasize the first repulsive dimension 5x: results should now be points
    # that differ from the query mostly along dimension 0.
    weighted = index.query(query_point, k=5, alpha=[5.0, 1.0], beta=[1.0, 1.0])
    print("Top-5 with alpha = [5, 1] (dimension 0 dominates the 'distance' reward):")
    for match in weighted:
        delta = np.abs(np.array(match.point) - query_point)
        print(f"  row {match.row_id:>6}  score={match.score:+.4f}  |delta|={np.round(delta, 3)}")
    print()

    # --- scores are exactly Equation 3 ----------------------------------------
    first = weighted[0]
    recomputed = sd_score(first.point, query.with_weights([5.0, 1.0], [1.0, 1.0]))
    print(f"Recomputing the best score by hand: {recomputed:+.4f} "
          f"(matches {first.score:+.4f})")

    # --- batch serving ----------------------------------------------------------
    # A serving tier rarely answers one query at a time.  batch_query takes an
    # (m, d) array of query points plus per-query k and weights, shares the
    # index traversal between queries and scores candidates in vectorized
    # kernels — with answers bit-identical to the one-at-a-time path.
    import time

    batch_points = rng.random((50, 4))
    batch_ks = rng.integers(1, 11, size=50)          # mixed per-query k
    batch_alpha = rng.uniform(0.2, 2.0, size=(50, 2))  # per-query weights
    batch_beta = rng.uniform(0.2, 2.0, size=(50, 2))

    started = time.perf_counter()
    batch = index.batch_query(batch_points, k=batch_ks,
                              alpha=batch_alpha, beta=batch_beta)
    batch_seconds = time.perf_counter() - started

    started = time.perf_counter()
    loop = [
        index.query(batch_points[j], k=int(batch_ks[j]),
                    alpha=batch_alpha[j], beta=batch_beta[j])
        for j in range(50)
    ]
    loop_seconds = time.perf_counter() - started

    assert all(b.row_ids == s.row_ids and b.scores == s.scores
               for b, s in zip(batch, loop))
    print(f"Batch of 50 queries: {1000 * batch_seconds:.1f} ms batched vs "
          f"{1000 * loop_seconds:.1f} ms looped "
          f"({loop_seconds / batch_seconds:.1f}x faster, identical answers)")
    print(f"Query 0 asked k={batch_ks[0]} and got rows {batch[0].row_ids}\n")

    # --- the index is dynamic ---------------------------------------------------
    new_point = query_point.copy()
    new_point[0] += 3.0  # far away on the repulsive dimension, identical elsewhere
    row = index.insert(new_point)
    after = index.query(query)
    print(f"\nAfter inserting a tailor-made point (row {row}), the new top-1 is row "
          f"{after[0].row_id} with score {after[0].score:+.4f}")
    index.delete(row)
    print("...and deleting it restores the original answer:",
          index.query(query)[0].row_id == result[0].row_id)

    # --- the cached query session survives updates ------------------------------
    # Every query above ran on the same *cached session*: the projection trees
    # flattened into numpy arrays, built lazily on the first query.  Updates do
    # not invalidate it — inserts land in a small mutable delta, deletes are
    # tombstoned in a level's validity mask, and flushes fold the delta into
    # immutable levels — so serving keeps its speed across churn.
    # bulk_insert/bulk_delete apply one vectorized update for a whole burst.
    session = index.query_session()
    burst = rng.random((500, 4))
    burst_rows = index.bulk_insert(burst)
    index.bulk_delete(burst_rows[:250])
    stats = session.maintenance_stats()
    print(f"\nSession after a 500-insert / 250-delete burst: "
          f"{stats['patched_inserts']} inserts and {stats['patched_deletes']} deletes "
          f"absorbed, {stats['reflattens']} reflattens")

    # Level tombstones past a quarter of the live points trigger a merge (the
    # projection tree's own rebuild policy).  A maintenance window can also
    # rebuild the session from scratch eagerly:
    index.refresh_session()
    print("After refresh_session():", session.maintenance_stats())

    # Cleanup, and the answers still match the legacy traversal bit for bit.
    index.bulk_delete(burst_rows[250:])
    fast = index.query(query)
    legacy = index.query(query, engine="legacy")
    print("Fast path == legacy oracle after all the churn:",
          fast.scores == legacy.scores and fast.row_ids == legacy.row_ids)

    # --- scale out: the sharded serving engine ----------------------------------
    # Past a few hundred thousand points (or under an insert storm) one flat
    # view becomes the bottleneck.  build_sharded partitions the rows across
    # independent shards — each with its own trees, columns and maintained
    # session — and serves queries by probing shards in upper-bound order,
    # skipping shards that provably cannot contribute.  Answers stay
    # bit-identical to the unsharded index.  partitioner="range" splits on the
    # first attractive dimension (locality makes whole shards prunable);
    # partitioner="hash" is the uniform default.
    from repro.serving import ResiliencePolicy, RetryPolicy

    sharded = SDIndex.build_sharded(
        data, repulsive=repulsive, attractive=attractive,
        num_shards=4, partitioner="range", rebalance_threshold=1.2,
        # Fault-domain config for the killed-shard demo further down: bounded
        # retries, per-shard circuit breakers, degrade instead of failing.
        resilience=ResiliencePolicy(
            retry=RetryPolicy(max_attempts=3, base_backoff=0.001, seed=1),
            failure_threshold=3, reset_timeout=0.05, degrade=True,
        ),
    )
    sharded_batch = sharded.batch_query(batch_points, k=batch_ks,
                                        alpha=batch_alpha, beta=batch_beta)
    assert all(b.row_ids == s.row_ids and b.scores == s.scores
               for b, s in zip(sharded_batch, batch))
    print(f"\nSharded engine: {sharded.num_shards} shards of sizes "
          f"{sharded.shard_sizes()}, answers identical to the flat index; "
          f"last batch pruned {sharded.serve_stats['pruned']} of "
          f"{sharded.serve_stats['pruned'] + sharded.serve_stats['probes']} "
          f"shard probes")

    # Shards stay balanced under skewed churn: rebalance() re-partitions the
    # live rows (quantile refit for range layouts) without changing any answer.
    sharded.bulk_insert(np.column_stack([rng.random((3000, 2)),
                                         0.95 + 0.05 * rng.random((3000, 2))]))
    print(f"Skew after a hot-range burst: {sharded.skew():.2f}; "
          f"rebalanced: {sharded.maybe_rebalance()}; "
          f"skew now {sharded.skew():.2f}")

    # --- serve while mutating: epoch snapshots ----------------------------------
    # Every engine serves through epochs (DESIGN.md section 6): reads pin an
    # immutable epoch, writers publish copy-on-write successors,
    # so reader threads stay correct while writer threads insert, delete and
    # even rebalance.  snapshot() exposes the same mechanism explicitly as a
    # repeatable-read view — pin it, and the answers cannot move under you.
    probe = batch_points[:8]
    with sharded.snapshot() as snap:
        pinned_before = snap.batch_query(probe, k=3)
        # A write storm lands *while the snapshot is open*...
        storm_rows = sharded.bulk_insert(rng.random((2000, 4)))
        sharded.rebalance()
        pinned_after = snap.batch_query(probe, k=3)
        # ...and the pinned view does not move: same rows, bit-equal scores.
        assert all(a.row_ids == b.row_ids and a.scores == b.scores
                   for a, b in zip(pinned_before, pinned_after))
        print(f"\nSnapshot pinned epoch v{snap.topology_version}: answers "
              f"unchanged through a 2000-row storm + rebalance "
              f"(now serving {len(sharded)} rows live, {len(snap)} pinned)")
    # Fresh reads see the new data the moment the snapshot is released.
    fresh = sharded.batch_query(probe, k=3)
    moved = sum(1 for a, b in zip(pinned_before, fresh)
                if a.row_ids != b.row_ids)
    print(f"After release, {moved}/8 probe answers changed — live reads see "
          f"the storm immediately")
    sharded.bulk_delete(storm_rows)

    # --- kill a shard: breakers, retries and graceful degradation ---------------
    # Production shards fail.  The fault plane (repro.faults, DESIGN.md
    # section 9) injects a seeded storm on one shard's probes; the resilience
    # policy above retries transient faults, trips that shard's circuit
    # breaker, and — rather than failing the query — returns a *degraded*
    # answer that says exactly what it might be missing: every returned score
    # is exact, and no missing row can beat ``coverage.score_bound``.
    from repro import faults

    storm = faults.FaultPlane(
        [faults.FaultRule("shard.probe", action="raise", rate=1.0, key=1)],
        seed=7,
    )
    with faults.fault_plane(storm):
        survived = sharded.query(query_point, k=5)
    cov = survived.coverage
    print(f"\nShard 1 down hard: the query still answered, degraded="
          f"{survived.degraded}, covered {cov.covered_fraction:.0%} of shards "
          f"(skipped {[s for s, _ in cov.skipped]}), any missing row scores "
          f"<= {cov.score_bound:+.4f}")
    print(f"breaker states: "
          f"{ {b['name']: b['state'] for b in sharded.breaker_stats()} }")
    # Once the storm passes the breaker's reset timeout lets a trial probe
    # through, the shard heals, and answers are full-coverage again —
    # bit-identical to the healthy engine.
    time.sleep(0.06)
    healed = sharded.query(query_point, k=5)
    print(f"after the storm: degraded={healed.degraded}, answers match the "
          f"healthy engine:", healed.scores == sharded.query(query_point, k=5).scores)

    sharded.close()

    # --- persistence: snapshots, a write-ahead log and crash recovery -----------
    # Until now everything lived in process memory: a restart meant rebuilding
    # from the raw dataset and losing every update.  save()/load() write and
    # restore a versioned, checksummed snapshot of the serving state (DESIGN.md
    # section 7); load(mmap=True) memory-maps the arrays, so the warm start is
    # near-instant — the expensive projection trees are rebuilt lazily, only
    # when maintenance first needs them.
    import shutil
    import tempfile
    from pathlib import Path

    from repro import DurableIndex

    workdir = Path(tempfile.mkdtemp(prefix="sdindex-persist-"))
    started = time.perf_counter()
    index.save(workdir / "snapshot")
    save_seconds = time.perf_counter() - started
    started = time.perf_counter()
    warm = SDIndex.load(workdir / "snapshot", mmap=True)
    load_seconds = time.perf_counter() - started
    reloaded = warm.query(query)
    print(f"\nSnapshot saved in {1000 * save_seconds:.0f} ms, mmap-loaded in "
          f"{1000 * load_seconds:.0f} ms; answers identical:",
          reloaded.scores == index.query(query).scores)

    # Between snapshots, DurableIndex journals every mutation in a write-ahead
    # log (fsync-on-commit by default): recover() loads the last checkpoint and
    # replays the log tail, so no acknowledged write is ever lost — the core of
    # the crash-recovery contract the crash-injection test harness enforces.
    durable = DurableIndex.create(warm, workdir / "durable")
    hot_row = durable.insert(new_point)          # applied, journaled, then acked
    durable.checkpoint()                         # streamed while writers run
    durable.delete(hot_row)                      # lands in the WAL tail
    durable.close()                              # "crash" (nothing flushed ahead)
    recovered = DurableIndex.recover(workdir / "durable")
    print(f"Recovered from checkpoint + {recovered.last_recovery['replayed']} "
          f"replayed WAL record(s); the post-checkpoint delete survived:",
          recovered.query(query).row_ids == index.query(query).row_ids)
    recovered.close()
    shutil.rmtree(workdir)

    # --- serve it: the asyncio coalescing front end ------------------------------
    # A service answers *single* queries from many concurrent clients, not
    # prepared batches.  SDQueryServer (DESIGN.md section 8) micro-batches
    # requests that arrive within one tick into a single epoch-pinned
    # batch_query, rate-limits per tenant, and caches results per
    # (query, epoch) — over plain HTTP/1.1 + JSON, stdlib only.
    import asyncio

    from repro.serving import SDQueryServer, ServingClient, ServingConfig

    async def serve_and_query() -> None:
        config = ServingConfig(tick_seconds=0.002, rate=40.0, burst=8.0)
        async with SDQueryServer(index, config) as server:
            host, port = await server.start()
            print(f"\nServing the index at http://{host}:{port}")

            async def one_client(name: str, count: int):
                async with ServingClient(host, port) as client:
                    answers = []
                    for j in range(count):
                        status, payload = await client.query(
                            batch_points[j], k=3, tenant=name)
                        answers.append((status, payload))
                    return answers

            # Ten concurrent clients, five requests each, all in one burst:
            # the tick coalesces them into a handful of pinned batches.
            results = await asyncio.gather(
                *(one_client(f"client-{c}", 5) for c in range(10)))
            statuses = [s for answers in results for s, _ in answers]
            sizes = server.coalescer.stats()["batch_size_histogram"]
            print(f"50 requests from 10 clients -> all {statuses.count(200)} "
                  f"answered 200; coalesced batch sizes {sizes}")

            # Identical repeats hit the (query, epoch) cache until an update
            # publishes a new epoch — then they miss, with zero coordination.
            async with ServingClient(host, port) as client:
                _, fresh = await client.query(batch_points[0], k=3)
                _, repeat = await client.query(batch_points[0], k=3)
                row = index.insert(rng.random(4))  # publishes a new epoch
                _, after = await client.query(batch_points[0], k=3)
                index.delete(row)
                print(f"repeat served from cache: {repeat['cached']}; "
                      f"after an insert (epoch {fresh['epoch']} -> "
                      f"{after['epoch']}): {after['cached']}")

                # One greedy tenant runs into the token bucket: a typed 429
                # with Retry-After, costing the server no kernel time.
                rejected = 0
                for _ in range(40):
                    status, _ = await client.query(
                        batch_points[1], k=1, tenant="greedy")
                    rejected += status == 429
                print(f"greedy tenant: {rejected}/40 rejected with 429 "
                      f"(everyone else unaffected)")

        report = index.query_session().epochs.leak_report()
        print(f"server closed cleanly: {report['pinned_readers']} pinned "
              f"readers left")

    asyncio.run(serve_and_query())


if __name__ == "__main__":
    main()
