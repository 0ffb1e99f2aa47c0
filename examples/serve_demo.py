"""Serving demo: one warm lake, concurrent clients, a live ingest.

Builds a small persistent lake store, puts it behind the concurrent
serving layer (`repro.service`), and drives it end to end over TCP:

1. two identical discover calls -- the second is served from the
   versioned result cache;
2. a burst of concurrent clients asking the same never-seen question --
   single-flight executes it once and every caller gets those bytes;
3. a live ingest through the service -- the lake version bumps, the
   service hot-swaps to a warm new generation, and the same query now
   returns the new table (never a stale cached answer);
4. the service stats surface: hits/misses, shared executions, reloads,
   latency.

Run:  python examples/serve_demo.py
"""

import tempfile
import threading
from pathlib import Path

from repro import DataLake, Dialite, LakeServer, LakeService, ServiceClient, Table
from repro.store import LakeStore

# --- a small lake, persisted as a store (the offline step) ---------------
lake = DataLake(
    [
        Table(
            ["Country", "City", "Vaccination Rate"],
            [("Canada", "Toronto", "83%"), ("USA", "Boston", "62%")],
            name="vaccinations",
        ),
        Table(
            ["City", "Total Cases", "Death Rate"],
            [("Berlin", "1.4M", 147), ("Boston", "263k", 335)],
            name="covid_stats",
        ),
        Table(
            ["First Name", "Last Name", "Company"],
            [("Alice", "Smith", "Acme")],
            name="employees",  # unrelated; discovery should skip it
        ),
    ]
)
store_dir = Path(tempfile.mkdtemp(prefix="serve_demo_")) / "lake.store"
store = LakeStore.create(store_dir)
store.ingest(lake)
roster = Dialite(DataLake()).discoverers.components()
store.open_index(roster)  # hydrate -> fit -> persist
print(f"store built at {store_dir} (lake v{store.lake_version})")

# --- the serving session, behind a TCP front end -------------------------
service = LakeService(store=store_dir, workers=4)
server = LakeServer(service, port=0)  # 0 = pick a free port
server.start()
host, port = server.address
client = ServiceClient((host, port))
print(f"serving on {host}:{port}, lake v{client.version()}\n")

query = Table(
    ["Country", "City", "Vaccination Rate"],
    [("Germany", "Berlin", "63%"), ("Spain", "Barcelona", "82%")],
    name="my_query",
)

# 1. cache: same content twice -> second response is a cache hit
first = client.discover(query, k=5, column="City")
again = client.discover(query, k=5, column="City")
print("discovered:", [r["table"] for r in first["payload"]["results"]])
print(f"first cached={first['cached']}, second cached={again['cached']}\n")

# 2. concurrent burst: five callers, one never-seen content (the name is
# not part of the key) -- one execution; a caller either joins it in
# flight or, arriving after it landed, hits the cache
burst = [
    Table(
        query.columns,
        list(query.rows) + [("France", "Paris", "71%")],
        name=f"caller_{i}",
    )
    for i in range(5)
]
replies = []
threads = [
    threading.Thread(
        target=lambda q: replies.append(client.discover(q, k=5, column="City")), args=(q,)
    )
    for q in burst
]
for thread in threads:
    thread.start()
for thread in threads:
    thread.join()
assert len({str(reply["payload"]) for reply in replies}) == 1
print(
    f"burst of {len(replies)} identical requests: one answer, "
    f"{sum(reply['cached'] for reply in replies)} served from the cache, "
    f"the rest from one shared execution\n"
)

# 3. live ingest: version bumps, the service reloads, answers change
report = client.ingest(
    [Table(["City", "Mayor"], [("Berlin", "K. Giffey"), ("Boston", "M. Wu")],
           name="mayors")]
)
print(f"ingested {report['added']} -> lake v{report['lake_version']}")
fresh = client.discover(query, k=5, column="City")
print(
    f"re-query at v{fresh['lake_version']} (cached={fresh['cached']}): "
    f"{[r['table'] for r in fresh['payload']['results']]}\n"
)
assert "mayors" in [r["table"] for r in fresh["payload"]["results"]]
assert fresh["lake_version"] > first["lake_version"]

# 4. the metrics surface
stats = client.stats()
print(
    f"stats: {stats['requests']} requests, {stats['hits']} cache hits, "
    f"{stats['batches']} shared executions ({stats['batched_requests']} callers served), "
    f"{stats['reloads']} reloads"
)
discover_latency = stats["latency"].get("discover", {})
print(
    f"discover latency: p50 {discover_latency.get('p50_ms')}ms, "
    f"p95 {discover_latency.get('p95_ms')}ms"
)

client.shutdown()
print("\nserver shut down cleanly")
