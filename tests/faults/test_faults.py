"""Unit tests for fault injectors against a real testbed instance."""

import importlib
import pkgutil
import random

import pytest

import repro.faults
from repro.core.vantage import ALL_VPS
from repro.faults import (
    FAULT_NAMES,
    LanCongestion,
    LanShaping,
    LowRssi,
    MobileLoad,
    WanCongestion,
    WanShaping,
    WifiInterference,
    make_fault,
)
from repro.faults.base import FAULT_LOCATIONS, Fault
from repro.testbed.testbed import Testbed, TestbedConfig


@pytest.fixture()
def bed():
    return Testbed(TestbedConfig(seed=11))


def rng():
    return random.Random(0)


#: concrete faults kept out of every training campaign (``faults/unknown.py``)
UNKNOWN_FAULTS = ("dns_misconfiguration", "middlebox_interference")


def concrete_faults():
    """Every named ``Fault`` subclass defined under ``repro.faults``."""
    for module in pkgutil.iter_modules(repro.faults.__path__):
        importlib.import_module(f"repro.faults.{module.name}")
    found, stack = [], [Fault]
    while stack:
        for cls in stack.pop().__subclasses__():
            stack.append(cls)
            if cls.name != "abstract" and cls.__module__.startswith("repro.faults"):
                found.append(cls)
    return sorted(found, key=lambda cls: cls.name)


CONCRETE_FAULTS = concrete_faults()


def test_concrete_faults_are_the_known_and_unknown_names():
    names = [cls.name for cls in CONCRETE_FAULTS]
    assert sorted(names) == sorted(set(FAULT_NAMES) | set(UNKNOWN_FAULTS))


def assert_lifecycle(fault_cls, severity="mild"):
    """clear before apply and a second clear are no-ops; apply and clear
    flip ``active``; the fault declares where its signature is seen."""
    bed = Testbed(TestbedConfig(seed=11))
    fault = fault_cls(severity, rng())
    fault.clear(bed)
    assert not fault.active
    fault.apply(bed)
    assert fault.active
    fault.clear(bed)
    assert not fault.active
    fault.clear(bed)
    assert not fault.active
    scope = fault_cls.VANTAGE_SCOPE
    assert isinstance(scope, tuple) and scope
    assert set(scope) <= set(ALL_VPS)


@pytest.mark.parametrize("severity", ["mild", "severe"])
@pytest.mark.parametrize("fault_cls", CONCRETE_FAULTS, ids=lambda cls: cls.name)
def test_fault_lifecycle(fault_cls, severity):
    assert_lifecycle(fault_cls, severity)


class Synthetic(Fault):
    """A well-formed fault; the subclasses below each plant one defect."""

    name = "synthetic"
    VANTAGE_SCOPE = ("mobile", "router")

    def apply(self, testbed):
        self._saved = testbed.medium.rate_cap
        testbed.medium.set_rate_cap(6e6)
        self.active = True

    def clear(self, testbed):
        if not self.active:
            return
        testbed.medium.set_rate_cap(self._saved)
        self.active = False


class ApplyWithoutActive(Synthetic):
    def apply(self, testbed):
        self._saved = testbed.medium.rate_cap


class ClearWithoutReset(Synthetic):
    def clear(self, testbed):
        if self.active:
            testbed.medium.set_rate_cap(self._saved)


class ClearWithoutGuard(Synthetic):
    def clear(self, testbed):
        testbed.medium.set_rate_cap(self._saved)
        self.active = False


PLANTED = {
    "missing-clear": type("NoClear", (Synthetic,), {"clear": Fault.clear}),
    "missing-apply": type("NoApply", (Synthetic,), {"apply": Fault.apply}),
    "apply-without-active": ApplyWithoutActive,
    "clear-without-reset": ClearWithoutReset,
    "clear-without-guard": ClearWithoutGuard,
    "missing-scope": type("NoScope", (Fault,), {
        "name": "synthetic", "apply": Synthetic.apply, "clear": Synthetic.clear}),
    "empty-scope": type("EmptyScope", (Synthetic,), {"VANTAGE_SCOPE": ()}),
    "scope-not-a-tuple": type("ListScope", (Synthetic,), {"VANTAGE_SCOPE": ["mobile"]}),
    "unknown-vantage-point": type("Cloud", (Synthetic,), {"VANTAGE_SCOPE": ("cloud",)}),
}


def test_lifecycle_check_accepts_a_well_formed_fault():
    assert_lifecycle(Synthetic)


@pytest.mark.parametrize("defect", sorted(PLANTED))
def test_lifecycle_check_catches(defect):
    with pytest.raises((AssertionError, AttributeError, NotImplementedError)):
        assert_lifecycle(PLANTED[defect])


def test_registry_covers_all_names():
    for name in FAULT_NAMES:
        fault = make_fault(name, "mild", rng())
        assert fault.name == name
        assert fault.location == FAULT_LOCATIONS[name]


def test_unknown_fault_rejected():
    with pytest.raises(KeyError):
        make_fault("dns_hijack", "mild", rng())


def test_invalid_severity_rejected():
    with pytest.raises(ValueError):
        WanShaping("catastrophic", rng())


def test_severity_bands_ordered():
    """Severe intensity draws are harsher than mild for every fault."""
    for _ in range(20):
        assert WanShaping("severe", rng()).band(
            WanShaping.MILD_RATE, WanShaping.SEVERE_RATE
        ) <= WanShaping.MILD_RATE[1]


def test_wan_shaping_apply_and_clear(bed):
    before = (bed.wan_down.rate_bps, bed.wan_down.delay, bed.wan_down.loss,
              bed.wan_up.rate_bps)
    fault = WanShaping("severe", rng())
    fault.apply(bed)
    assert bed.wan_down.rate_bps < before[0]
    assert bed.wan_down.delay > before[1]
    assert bed.wan_down.loss > before[2]
    assert fault.active
    fault.clear(bed)
    assert (bed.wan_down.rate_bps, bed.wan_down.delay, bed.wan_down.loss,
            bed.wan_up.rate_bps) == before
    assert not fault.active


def test_lan_shaping_caps_wlan_rate(bed):
    assert bed.medium.rate_cap is None
    fault = LanShaping("mild", rng())
    fault.apply(bed)
    assert bed.medium.rate_cap in LanShaping.MILD_RATES
    fault.clear(bed)
    assert bed.medium.rate_cap is None


def test_lan_shaping_lowers_observed_phy_rate(bed):
    from repro.simnet.packet import Packet, UDP

    fault = LanShaping("severe", rng())
    fault.apply(bed)
    bed.phone.bind(UDP, 9, lambda p: None)
    for _ in range(30):
        bed.router.interfaces["wlan0"].transmit(
            Packet(src="router", dst="phone", sport=1, dport=9, proto=UDP,
                   payload_len=1000)
        )
    bed.sim.run(until=2.0)
    st = bed.phone_station
    assert st.mean_phy_rate <= max(LanShaping.SEVERE_RATES)
    # RSSI is untouched: the phone can tell shaping from poor signal.
    assert st.rssi(bed.sim.now) > -70.0
    fault.clear(bed)


def test_lan_congestion_generates_bridge_traffic(bed):
    fault = LanCongestion("severe", rng())
    fault.apply(bed)
    bed.sim.run(until=2.0)
    assert fault._sink.pkts_received > 50
    assert bed.router.bridge.pkts_sent > 50
    fault.clear(bed)
    count = fault._sink.pkts_received
    bed.sim.run(until=4.0)
    assert fault._sink.pkts_received <= count + 2


def test_wan_congestion_loads_wan_channels(bed):
    fault = WanCongestion("severe", rng())
    fault.apply(bed)
    bed.sim.run(until=2.0)
    assert bed.wan_down.pkts_sent > 100  # downstream blast dominates
    assert bed.wan_up.pkts_sent > 10
    fault.clear(bed)


def test_mobile_load_raises_cpu_and_shrinks_memory(bed):
    device = bed.phone_device
    idle_cpu = device.cpu_utilization()
    idle_mem = device.free_memory()
    fault = MobileLoad("severe", rng())
    fault.apply(bed)
    assert device.cpu_utilization() > idle_cpu + 0.4
    assert device.free_memory() < idle_mem
    fault.clear(bed)
    assert device.cpu_utilization() == pytest.approx(idle_cpu)


def test_mobile_load_starves_decoder(bed):
    from repro.video.catalog import VideoProfile

    bed.phone_device.new_session(VideoProfile("v", "HD", "720p", 2e6, 30.0))
    assert bed.phone_device.decode_speed() > 0.9
    MobileLoad("severe", rng()).apply(bed)
    assert bed.phone_device.decode_speed() < 0.7


def test_low_rssi_targets_band(bed):
    fault = LowRssi("severe", rng())
    fault.apply(bed)
    st = bed.phone_station
    effective = st.base_rssi - st.attenuation
    assert LowRssi.SEVERE_RSSI[0] - 0.1 <= effective <= LowRssi.SEVERE_RSSI[1] + 0.1
    fault.clear(bed)
    assert st.attenuation == 0.0


def test_wifi_interference_sets_duty(bed):
    fault = WifiInterference("mild", rng())
    fault.apply(bed)
    assert WifiInterference.MILD_DUTY[0] <= bed.medium.interference_duty <= WifiInterference.MILD_DUTY[1]
    fault.clear(bed)
    assert bed.medium.interference_duty == 0.0


def test_clear_without_apply_is_noop(bed):
    for name in FAULT_NAMES:
        make_fault(name, "mild", rng()).clear(bed)


def test_make_fault_default_rng_is_reproducible():
    a = make_fault("wan_shaping", "mild")
    b = make_fault("wan_shaping", "mild")
    assert a.rng.random() == b.rng.random()


def test_intensity_randomised_per_instance():
    draws = {WanShaping("mild", random.Random(i)) for i in range(5)}
    rates = set()
    bed2 = Testbed(TestbedConfig(seed=12))
    for fault in draws:
        fault.apply(bed2)
        rates.add(fault.intensity["rate_bps"])
        fault.clear(bed2)
    assert len(rates) == 5


def test_abstract_fault_interface():
    fault = Fault("mild", rng())
    with pytest.raises(NotImplementedError):
        fault.apply(None)
    with pytest.raises(NotImplementedError):
        fault.clear(None)
