#!/usr/bin/env python3
"""Traffic engineering on the B4 WAN surviving a switch failure.

Places two large flows with the capacity-aware TE application, fails a
switch on their paths (with IPFRR-style local repair onto congested
backups), and shows the TE app + ZENITH-core restore full throughput —
the Fig. 14 scenario as a runnable example.

    python examples/traffic_engineering.py
"""

from repro import Environment, Network, b4
from repro.apps import TeApp
from repro.core import ZenithController
from repro.net import Flow, FlowEntry, TrafficMonitor
from repro.sim import ComponentHost


def main() -> None:
    topo = b4()
    env = Environment()
    network = Network(env, topo, local_repair=True)
    controller = ZenithController(env, network).start()

    flows = [
        Flow("f1", "b4-1", "b4-12", 8.0),
        Flow("f2", "b4-3", "b4-9", 8.0),
    ]
    app = TeApp(env, controller, flows, sticky_primaries=True,
                computation_delay=1.0)
    ComponentHost(env, app, auto_restart=False).start()
    env.run(until=5)
    for flow in flows:
        path = " -> ".join(app.current_paths[flow.name])
        print(f"  {flow.name}: {flow.demand:.0f} Gb/s on {path}")

    # Static local-protection backups at low priority.
    victim = app.current_paths["f1"][1]
    for flow in flows:
        backups = topo.k_shortest_paths(flow.src, flow.dst, 3,
                                        excluded={victim})
        if backups:
            path = backups[0]
            for hop, nxt in zip(path, path[1:]):
                entry = FlowEntry(app.alloc.entry_id(), path[-1], nxt, -1)
                network[hop].flow_table[entry.entry_id] = entry
                controller.state.protect_entry(hop, entry.entry_id)

    monitor = TrafficMonitor(env, network, flows, period=0.5)

    print(f"[t={env.now:5.1f}s] failing {victim} (on f1's primary)")
    network.fail_switch(victim)
    env.run(until=env.now + 1)
    print(f"[t={env.now:5.1f}s] local repair active; throughput "
          f"{sum(v for v in monitor.samples[-1].per_flow.values()):.1f} Gb/s")

    env.run(until=env.now + 10)
    print(f"[t={env.now:5.1f}s] TE rerouted "
          f"({len(app.reroutes)} reroute decisions so far)")

    network.recover_switch(victim)
    env.run(until=env.now + 15)
    final = monitor.samples[-1]
    print(f"[t={env.now:5.1f}s] {victim} recovered; per-flow throughput: "
          + ", ".join(f"{k}={v:.1f}" for k, v in final.per_flow.items()))
    assert final.total >= 15.9, "full throughput should be restored"
    assert controller.view_matches_dataplane()
    print("throughput restored and controller view consistent")


if __name__ == "__main__":
    main()
