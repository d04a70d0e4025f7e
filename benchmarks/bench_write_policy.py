"""EXP-14 — store-on-close vs deferred write-back (§3.2).

Paper: "Changes to a cached file may be transmitted on close to the
corresponding custodian or deferred until a later time.  In our design,
Virtue stores a file back when it is closed.  We have adopted this approach
in order to simplify recovery from workstation crashes.  It also results in
a better approximation to a timesharing file system, where changes by one
user are immediately visible to all other users."

The ablation quantifies what the choice buys and costs: deferral coalesces
stores (less server traffic) but loses more on a crash and delays
visibility.  A save-happy editing session (users repeatedly saving the same
document) makes the trade vivid.
"""

from repro import ITCSystem, SystemConfig
from repro.analysis import Table

from _common import one_round, save_table

SAVES = 20
DOCS = 3


def run_editing_session(write_policy):
    campus = ITCSystem(
        SystemConfig(mode="revised", clusters=1, workstations_per_cluster=2,
                     functional_payload_crypto=False,
                     write_policy=write_policy)
    )
    campus.add_user("writer", "pw")
    campus.create_user_volume("writer")
    writer = campus.login(0, "writer", "pw")
    sim = campus.sim

    # The editing session: repeated saves, ~10s apart.
    def edit():
        for save in range(SAVES):
            for doc in range(DOCS):
                yield from writer.write_file(
                    f"/vice/usr/writer/doc{doc}", b"draft %03d " % save + b"x" * 3000
                )
            yield sim.timeout(10.0)

    campus.run_op(edit())
    stores_at_crash = campus.server(0).call_mix.count("store")
    # Simulate a crash right at the end of the session, before any further
    # flushing; count how many of the final drafts the server holds.
    volume = campus.server(0).volumes["u-writer"]
    survived = sum(
        1 for doc in range(DOCS)
        if volume.fs.exists(f"/doc{doc}")
        and volume.read(f"/doc{doc}").startswith(b"draft %03d" % (SAVES - 1))
    )
    # Then let the world quiesce and count total stores.
    campus.run(until=sim.now + 120.0)
    return {
        "stores": campus.server(0).call_mix.count("store"),
        "stores_at_crash": stores_at_crash,
        "latest_drafts_on_server_at_crash": survived,
        "coalesced": campus.workstation(0).venus.coalesced_stores,
    }


def test_exp14_write_policy(benchmark):
    results = one_round(
        benchmark,
        lambda: {policy: run_editing_session(policy) for policy in ("on-close", "deferred")},
    )
    on_close, deferred = results["on-close"], results["deferred"]
    total_saves = SAVES * DOCS

    table = Table(
        ["quantity", "store-on-close (the paper)", "deferred 30s"],
        title=f"EXP-14: {SAVES} saves of {DOCS} documents, then a crash",
    )
    table.add("stores sent to the custodian", on_close["stores"], deferred["stores"])
    table.add("closes coalesced away", on_close["coalesced"], deferred["coalesced"])
    table.add(
        f"documents current on server at crash (of {DOCS})",
        on_close["latest_drafts_on_server_at_crash"],
        deferred["latest_drafts_on_server_at_crash"],
    )
    save_table("EXP-14_write_policy", table)

    benchmark.extra_info.update(results)

    # Store-on-close: every save reaches the custodian, nothing is lost.
    assert on_close["stores"] == total_saves
    assert on_close["latest_drafts_on_server_at_crash"] == DOCS
    # Deferral: markedly fewer stores (the benefit)...
    assert deferred["stores"] < 0.6 * total_saves
    assert deferred["coalesced"] > 0
    # ...but the crash window is real (the paper's reason to reject it):
    assert deferred["latest_drafts_on_server_at_crash"] < DOCS
