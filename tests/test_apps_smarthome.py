"""Integration tests for both smart home variants."""

import pytest

from repro.apps.smarthome import (
    MotionTrace,
    SmartHomeKnactorApp,
    SmartHomePubSubApp,
)
from repro.core.policy import deny_during


class TestDevices:
    def test_motion_trace_alternates(self):
        events = MotionTrace(seed=3).events()
        assert events, "trace must not be empty"
        states = [e.triggered for e in events]
        assert all(a != b for a, b in zip(states, states[1:]))

    def test_trace_is_deterministic(self):
        assert MotionTrace(seed=3).events() == MotionTrace(seed=3).events()

    def test_lamp_energy_accumulates_with_brightness(self):
        from repro.apps.smarthome.devices import LampDevice
        from repro.simnet import Environment

        env = Environment()
        reports = []
        lamp = LampDevice(env, on_energy=reports.append, report_interval=10.0)
        lamp.start()
        lamp.set_brightness(100)
        env.run(until=10.5)
        assert reports and reports[0] > 0

    def test_lamp_off_consumes_nothing(self):
        from repro.apps.smarthome.devices import LampDevice
        from repro.simnet import Environment

        env = Environment()
        reports = []
        lamp = LampDevice(env, on_energy=reports.append, report_interval=10.0)
        lamp.start()
        env.run(until=10.5)
        assert reports == [0.0]


class TestPubSubVariant:
    def test_lamp_follows_motion(self):
        app = SmartHomePubSubApp.build(trace=MotionTrace(seed=11))
        app.run(until=130.0)
        assert len(app.lamp.device.changes) > 0
        levels = {level for _t, level in app.lamp.device.changes}
        assert levels == {0, 70}

    def test_house_accumulates_energy(self):
        app = SmartHomePubSubApp.build()
        app.run(until=130.0)
        assert app.house.kwh_total > 0

    def test_no_decode_errors_with_matching_codecs(self):
        app = SmartHomePubSubApp.build()
        app.run(until=130.0)
        assert app.house.decode_errors == 0


class TestKnactorVariant:
    def test_lamp_follows_motion(self):
        app = SmartHomeKnactorApp.build(trace=MotionTrace(seed=11))
        app.run(until=130.0)
        levels = {level for _t, level in app.lamp_device.changes}
        assert levels == {0, 70}

    def test_behaviour_matches_pubsub_variant(self):
        """Same devices, same trace, same outcome -- different plumbing."""
        trace = MotionTrace(seed=11)
        pubsub = SmartHomePubSubApp.build(trace=trace).run(until=130.0)
        knactor = SmartHomeKnactorApp.build(trace=trace).run(until=130.0)
        assert len(pubsub.lamp.device.changes) == len(knactor.lamp_device.changes)
        assert pubsub.house.kwh_total == pytest.approx(
            knactor.house.kwh_total, rel=0.05
        )

    def test_house_only_touches_its_own_stores(self):
        app = SmartHomeKnactorApp.build()
        app.run(until=130.0)
        for de in (app.object_de, app.log_de):
            matrix = de.acl.exchange_matrix()
            house_stores = {s for (p, s) in matrix if p == "house"}
            assert house_stores <= {"knactor-house", "knactor-house-log"}

    def test_energy_analytics_on_house_log(self):
        app = SmartHomeKnactorApp.build()
        app.run(until=130.0)
        [report] = app.env.run(until=app.energy_report())
        assert report["total_kwh"] == pytest.approx(app.house.kwh_total, rel=1e-6)
        assert report["motion_events"] > 0

    def test_rollup_gauge_on_house_object_store(self):
        """The Rollup integrator keeps a live totalKwh gauge on the
        House's Object store, derived from its Log store."""
        app = SmartHomeKnactorApp.build()
        app.run(until=130.0)
        house = app.runtime.handle_of("house")
        config = app.env.run(until=house.get("main"))["data"]
        assert config["totalKwh"] == pytest.approx(app.house.kwh_total,
                                                   rel=1e-6)
        assert config["intensity"] in (0, 70)  # the reconciler's own field

    def test_windowed_energy_analytics(self):
        """Time-bucketed aggregation over the House's own log: the
        Log DE's analytics API composed from existing operators."""
        app = SmartHomeKnactorApp.build()
        app.run(until=130.0)
        handle = app.runtime.handle_of("house", "log")
        rows = app.env.run(
            until=handle.query(
                ops=[
                    {"op": "filter", "expr": "kwh != None"},
                    {"op": "derive", "field": "window",
                     "expr": "int(_ts // 30)"},
                    {"op": "agg", "aggs": {"kwh": "sum(kwh)"},
                     "by": ["window"]},
                    {"op": "sort", "by": "window"},
                ]
            )
        )
        assert len(rows) >= 3  # 130 s of run, 30 s windows
        total = sum(r["kwh"] for r in rows)
        assert total == pytest.approx(app.house.kwh_total, rel=1e-6)

    def test_rename_pipeline_applied(self):
        """Motion publishes 'triggered'; House's log holds 'motion'."""
        app = SmartHomeKnactorApp.build()
        app.run(until=130.0)
        handle = app.runtime.handle_of("house", "log")
        rows = app.env.run(
            until=handle.query(ops=[{"op": "filter", "expr": "motion == True"}])
        )
        assert rows
        assert all("triggered" not in r for r in rows)

    def test_sleep_hours_policy_blocks_lamp_control(self):
        """The paper's access-control example, enforced at the DE."""
        app = SmartHomeKnactorApp.build(trace=MotionTrace(seed=11))
        # The whole simulation happens during "sleep hours".
        deny_during(
            app.object_de, "control-cast", "knactor-lamp",
            start_hour=0, end_hour=23.9, seconds_per_hour=1e9,
        )
        app.run(until=130.0)
        # Motion was detected but the lamp never changed.
        assert len(app.house.motion_log) > 0
        assert app.lamp_device.changes == []
        assert app.object_de.acl.denials()


class TestVendorSwap:
    def test_replace_lamp_without_touching_house(self):
        """Fig. 2: compose S_A with S_C without modifying S_A."""
        from repro.apps.smarthome.knactors import LAMP_LOG, LAMP_OBJECT, LampReconciler
        from repro.apps.smarthome.devices import LampDevice
        from repro.core import Knactor, StoreBinding

        app = SmartHomeKnactorApp.build(trace=MotionTrace(seed=11))
        # A second lamp from another vendor comes online mid-run.
        new_reconciler = LampReconciler()
        schema2 = LAMP_OBJECT.replace("SmartHome/v1/Lamp", "SmartHome/v1/Lamp2")
        log2 = LAMP_LOG.replace("SmartHome/v1/Lamp", "SmartHome/v1/Lamp2")
        app.runtime.add_knactor(
            Knactor("lamp2", [
                StoreBinding("default", "object", schema2),
                StoreBinding("log", "log", log2),
            ], reconciler=new_reconciler)
        )
        new_device = LampDevice(app.env, on_energy=lambda kwh: None)
        new_reconciler.device = new_device
        app.object_de.grant("control-cast", "knactor-house", role="reader")
        app.object_de.grant("control-cast", "knactor-lamp2", role="integrator")
        # ONE integrator reconfiguration; House's code is untouched.
        app.control_cast.reconfigure(
            spec=(
                "Input:\n"
                "  H: SmartHome/v1/House/knactor-house\n"
                "  L: SmartHome/v1/Lamp2/knactor-lamp2\n"
                "DXG:\n"
                "  L:\n"
                "    brightness: H.intensity\n"
            )
        )
        app.run(until=130.0)
        assert len(new_device.changes) > 0
