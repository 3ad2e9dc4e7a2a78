"""The simulated testbed (Figure 2) and instrumented session runner.

Topology::

    server ===WAN (netem DSL/mobile)=== router/AP ---WiFi--- phone
                                          |
                                          +----Ethernet---- wired client

All three instrumented devices carry the probe stack of Section 3.1; the
wired client exists to generate congestion and background traffic, exactly
as in the paper's setup.  :meth:`Testbed.run_video_session` streams one
video under an optional fault and returns a :class:`SessionRecord` with
the full per-VP feature set and the MOS-based ground truth.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Dict, Optional, Tuple

from repro.faults.base import Fault
from repro.obs.telemetry import get_telemetry
from repro.probes.application import ApplicationProbe
from repro.probes.hardware import HardwareProbe
from repro.probes.link import LinkProbe
from repro.probes.radio import RadioProbe
from repro.probes.tstat import FlowKey, TstatProbe
from repro.record import SessionRecord  # re-exported: old pickles name it here
from repro.simnet.engine import Simulator
from repro.simnet.link import Channel, NetemChannel
from repro.simnet.node import Host, Router, wire
from repro.simnet.wireless import WifiMedium
from repro.testbed.devices import MobileDevice, RouterDevice, ServerDevice
from repro.traffic.apachebench import ApacheBenchLoad
from repro.traffic.ditg import BackgroundTraffic, TrafficMix
from repro.video.catalog import VideoProfile
from repro.video.mos import mos_to_severity
from repro.video.player import PlayerConfig
from repro.video.server import VideoServer
from repro.video.session import VideoSession

#: asymmetric WAN profiles; the Table 3 values apply to the downlink, the
#: uplink is the matching access technology (ADSL 1 Mbit/s, HSPA uplink).
WAN_PROFILES = {
    "dsl": {
        "down": dict(rate_bps=7.8e6, delay=0.040, jitter=0.015, loss=0.0075),
        "up": dict(rate_bps=1.0e6, delay=0.012, jitter=0.005, loss=0.002),
    },
    "mobile": {
        "down": dict(rate_bps=5.22e6, delay=0.080, jitter=0.025, loss=0.014),
        "up": dict(rate_bps=1.5e6, delay=0.030, jitter=0.010, loss=0.004),
    },
}


@dataclass
class TestbedConfig:
    """Knobs of one testbed instance."""

    seed: int = 0
    wan_profile: str = "dsl"
    server_mode: str = "apache"  # or "youtube"
    bridge_rate_bps: float = 25e6
    ethernet_rate_bps: float = 100e6
    phone_rssi_range: Tuple[float, float] = (-62.0, -42.0)
    server_base_load_range: Tuple[float, float] = (0.05, 0.4)
    background_intensity_range: Tuple[float, float] = (0.6, 1.6)
    warmup_s: float = 3.0
    traffic_mix: Optional[TrafficMix] = None
    player_config: Optional[PlayerConfig] = None
    #: keep raw per-packet traces on the tstat probes (``probe.trace``).
    #: Off by default: probes are streaming accumulators, and retention
    #: makes a session's memory proportional to its packet count.
    retain_trace: bool = False


class Testbed:
    """One fully-wired instance of the Figure 2 testbed."""

    def __init__(self, config: Optional[TestbedConfig] = None) -> None:
        self.config = config or TestbedConfig()
        cfg = self.config
        if cfg.wan_profile not in WAN_PROFILES:
            raise ValueError(f"unknown WAN profile {cfg.wan_profile!r}")
        self.sim = Simulator(seed=cfg.seed)
        sim = self.sim
        self.rng = sim.fork_rng("testbed")

        # --- nodes ---
        self.server = Host(sim, "server")
        self.router = Router(
            sim, "router", bridge_rate_bps=cfg.bridge_rate_bps,
            bridge_queue_bytes=256 * 1024,
        )
        self.phone = Host(sim, "phone")
        self.wired_client = Host(sim, "wired")

        # --- WAN link (netem-emulated DSL / mobile backhaul) ---
        profile = WAN_PROFILES[cfg.wan_profile]
        self.wan_down = NetemChannel(
            sim, "wan.down", cfg.wan_profile, **profile["down"]
        )
        self.wan_up = NetemChannel(sim, "wan.up", cfg.wan_profile, **profile["up"])
        wire(sim, self.server, "eth0", self.router, "wan0", self.wan_down, self.wan_up)

        # --- LAN Ethernet to the wired client ---
        self.eth_down = Channel(sim, "eth.down", cfg.ethernet_rate_bps, delay=0.0002)
        self.eth_up = Channel(sim, "eth.up", cfg.ethernet_rate_bps, delay=0.0002)
        wire(sim, self.router, "eth0", self.wired_client, "eth0", self.eth_down, self.eth_up)

        # --- WiFi ---
        self.medium = WifiMedium(sim)
        ap_if = self.router.add_interface("wlan0")
        phone_if = self.phone.add_interface("wlan0")
        self.ap_station = self.medium.add_station(
            "router", ap_if, is_ap=True, base_rssi=-30.0, shadow_sigma=0.5
        )
        base_rssi = self.rng.uniform(*cfg.phone_rssi_range)
        self.phone_station = self.medium.add_station(
            "phone", phone_if, base_rssi=base_rssi
        )

        # --- routing ---
        self.server.set_default_route(self.server.interfaces["eth0"])
        self.router.add_route("server", self.router.interfaces["wan0"])
        self.router.add_route("phone", ap_if)
        self.router.add_route("wired", self.router.interfaces["eth0"])
        self.phone.set_default_route(phone_if)
        self.wired_client.set_default_route(self.wired_client.interfaces["eth0"])

        # --- application-layer services and devices ---
        self.video_server = VideoServer(sim, self.server, mode=cfg.server_mode)
        self.phone_device = MobileDevice(sim, self.phone)
        self.phone_device.station = self.phone_station
        self.router_device = RouterDevice(sim, self.router)
        self.server_device = ServerDevice(sim, self.video_server)

        # --- background variation ---
        self.ab_load = ApacheBenchLoad(
            sim, self.video_server,
            base_load=self.rng.uniform(*cfg.server_base_load_range),
        )
        mix = cfg.traffic_mix or TrafficMix(
            intensity=self.rng.uniform(*cfg.background_intensity_range)
        )
        self.background = BackgroundTraffic(
            sim, self.server, self.wired_client, self.phone, mix=mix
        )

    # ------------------------------------------------------------------ run

    def _probes_up(self) -> Dict[str, object]:
        """Deploy the full Section 3.1 probe stack at all three VPs."""
        sim = self.sim
        retain = self.config.retain_trace
        probes: Dict[str, object] = {}
        tstat_mobile = TstatProbe(sim, "tstat.mobile", retain_trace=retain)
        tstat_mobile.attach(self.phone.interfaces["wlan0"])
        tstat_router = TstatProbe(sim, "tstat.router", retain_trace=retain)
        tstat_router.attach(self.router.interfaces["wan0"])
        tstat_server = TstatProbe(sim, "tstat.server", retain_trace=retain)
        tstat_server.attach(self.server.interfaces["eth0"])
        probes["tstat"] = {
            "mobile": tstat_mobile, "router": tstat_router, "server": tstat_server,
        }
        probes["hw"] = {
            "mobile": HardwareProbe(
                sim, self.phone_device.cpu_utilization, self.phone_device.free_memory
            ),
            "router": HardwareProbe(
                sim, self.router_device.cpu_utilization, self.router_device.free_memory
            ),
            "server": HardwareProbe(
                sim, self.server_device.cpu_utilization, self.server_device.free_memory
            ),
        }
        probes["radio"] = RadioProbe(sim, self.phone_station)
        probes["link"] = {
            "mobile_link": LinkProbe(sim, self.phone.interfaces["wlan0"]),
            "router_linkwan": LinkProbe(sim, self.router.interfaces["wan0"]),
            "router_linklan": LinkProbe(
                sim, self.router.interfaces["wlan0"], bridge=self.router.bridge
            ),
            "server_link": LinkProbe(sim, self.server.interfaces["eth0"]),
        }
        for probe in probes["hw"].values():
            probe.start()
        probes["radio"].start()
        for probe in probes["link"].values():
            probe.start()
        return probes

    def _probes_down(
        self, probes: Dict[str, Any], flow: Optional[FlowKey]
    ) -> Dict[str, float]:
        """Stop every probe and flatten the per-VP feature namespace."""
        features: Dict[str, float] = {}

        def add(prefix: str, metrics: Dict[str, float]) -> None:
            for key, value in metrics.items():
                features[f"{prefix}_{key}"] = float(value)

        for vp, tstat in probes["tstat"].items():
            add(f"{vp}_tcp", tstat.metrics_for(flow))
            tstat.detach()
        for vp, hw in probes["hw"].items():
            add(f"{vp}_hw", hw.stop())
        add("mobile_radio", probes["radio"].stop())
        for prefix, link in probes["link"].items():
            add(prefix, link.stop())
        return features

    def _run_instrumented(
        self,
        session_factory: Callable[[], Any],
        fault: Optional[Fault],
        deadline_s: float,
    ) -> Tuple[Any, Dict[str, float]]:
        """Warm up, apply the fault, run the session, collect features.

        ``session_factory`` is invoked *after* the fault is applied, so
        faults that alter session setup (e.g. DNS resolution delay) take
        effect.  Returns ``(session, features)``.
        """
        cfg = self.config
        sim = self.sim
        self.background.start()
        self.ab_load.start()
        sim.run(until=sim.now + cfg.warmup_s)
        if fault is not None:
            fault.apply(self)
            # Let queues/load settle so the probe window sees the fault state.
            sim.run(until=sim.now + 1.0)
        probes = self._probes_up()
        session = session_factory()
        events_before = sim.events_processed
        with get_telemetry().span("testbed.session", fault=fault.name if fault else "none") as span:
            session.start()
            deadline = sim.now + deadline_s
            while not session.finished and sim.now < deadline:
                sim.run(until=min(deadline, sim.now + 1.0))
            span.set("events", sim.events_processed - events_before)
        features = self._probes_down(probes, session.flow_key)
        if fault is not None:
            fault.clear(self)
        return session, features

    def run_video_session(
        self,
        profile: VideoProfile,
        fault: Optional[Fault] = None,
    ) -> SessionRecord:
        """Stream one video under ``fault`` and collect everything.

        The background workloads start first (warm-up), the fault is applied,
        the instrumented session runs to completion, then probes are read and
        the fault cleared.  Returns the labelled :class:`SessionRecord`.
        """
        cfg = self.config
        self.phone_device.new_session(profile)

        def make_session() -> VideoSession:
            return VideoSession(
                self.sim,
                self.phone,
                self.video_server,
                profile,
                player_config=cfg.player_config,
                decode_speed_fn=self.phone_device.decode_speed,
                recv_capacity_fn=self.phone_device.recv_capacity,
                pre_connect_delay_s=getattr(self, "dns_delay_s", 0.0),
            )

        session, features = self._run_instrumented(
            make_session, fault,
            deadline_s=profile.duration_s * 3 + 100.0,
        )

        app_metrics = ApplicationProbe().collect(session)
        mos = session.mos().mos
        severity = mos_to_severity(mos)
        self.phone_device.end_session()

        record = SessionRecord(
            features=features,
            app_metrics=app_metrics,
            mos=mos,
            severity=severity,
            fault_name=fault.name if fault is not None else "none",
            fault_severity=fault.severity if fault is not None else "",
            fault_location=fault.location if fault is not None else "",
            fault_intensity=dict(fault.intensity) if fault is not None else {},
            meta={
                "video_id": profile.video_id,
                "definition": profile.definition,
                "bitrate_bps": profile.bitrate_bps,
                "duration_s": profile.duration_s,
                "wan_profile": cfg.wan_profile,
                "server_mode": cfg.server_mode,
                "seed": cfg.seed,
                "session_s": session.duration,
                "phone_base_rssi": self.phone_station.base_rssi,
                # Ground truth used only by the Fig. 9 analysis: the
                # phone-side measurements during the session (the fault is
                # already cleared here, so instantaneous reads would lie).
                "true_cpu": features.get("mobile_hw_cpu_avg", 0.0),
                "true_rssi": features.get("mobile_radio_rssi_avg", 0.0),
            },
        )
        return record

    def run_abr_session(
        self,
        profile: VideoProfile,
        fault: Optional[Fault] = None,
    ) -> SessionRecord:
        """Stream one video with DASH-style adaptive bitrate delivery.

        Exercises the paper's claim that the diagnosis pipeline is agnostic
        to the delivery mechanism: probes, labelling and record format are
        identical to :meth:`run_video_session`, only the application-layer
        delivery differs.  Extra ABR statistics land in ``app_metrics``.
        """
        from repro.video.abr import AbrVideoServer, AbrVideoSession

        cfg = self.config
        self.phone_device.new_session(profile)
        abr_server = AbrVideoServer(self.sim, self.server)

        def make_session() -> "AbrVideoSession":
            return AbrVideoSession(
                self.sim,
                self.phone,
                abr_server,
                profile,
                player_config=cfg.player_config,
                decode_speed_fn=self.phone_device.decode_speed,
            )

        session, features = self._run_instrumented(
            make_session, fault,
            deadline_s=profile.duration_s * 3 + 100.0,
        )
        abr_server.close()

        m = session.player.metrics
        app_metrics = {
            "started": float(m.started),
            "completed": float(m.completed),
            "abandoned": float(m.abandoned),
            "startup_delay": m.startup_delay_s,
            "qoe_stall_count": float(m.qoe_stall_count),
            "qoe_stall_time": m.qoe_stall_s,
            "abr_segments": float(session.abr.segments),
            "abr_switches": float(session.abr.switches),
            "abr_avg_bitrate": session.abr.average_bitrate,
        }
        mos = session.mos().mos
        severity = mos_to_severity(mos)
        self.phone_device.end_session()

        duration = (session.end_time or self.sim.now) - (session.start_time or 0.0)
        return SessionRecord(
            features=features,
            app_metrics=app_metrics,
            mos=mos,
            severity=severity,
            fault_name=fault.name if fault is not None else "none",
            fault_severity=fault.severity if fault is not None else "",
            fault_location=fault.location if fault is not None else "",
            fault_intensity=dict(fault.intensity) if fault is not None else {},
            meta={
                "video_id": profile.video_id,
                "definition": profile.definition,
                "bitrate_bps": profile.bitrate_bps,
                "duration_s": profile.duration_s,
                "wan_profile": cfg.wan_profile,
                "server_mode": "abr",
                "seed": cfg.seed,
                "session_s": duration,
                "phone_base_rssi": self.phone_station.base_rssi,
                "true_cpu": features.get("mobile_hw_cpu_avg", 0.0),
                "true_rssi": features.get("mobile_radio_rssi_avg", 0.0),
            },
        )

    def shutdown(self) -> None:
        self.background.stop()
        self.ab_load.stop()
