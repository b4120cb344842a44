import pytest

from btai.domain import ActionTemplate, StateRegistry, StateVar, achieve_matrix
from btai.world import PerturbationEvent, ProtocolError, World


def registry():
    return StateRegistry([
        StateVar("isAt", 2, ("at", "away")),
        StateVar("isHolding", 2, ("holding", "free")),
    ])


MOVE = ActionTemplate("moveTo(table)", postconditions=(("isAt", 0),),
                      transitions={"isAt": achieve_matrix(2, 0)},
                      duration_ticks=3)
DOOMED = ActionTemplate("Doomed", postconditions=(("isAt", 0),),
                        transitions={"isAt": achieve_matrix(2, 0)},
                        success_prob=0.0)


def make_world(**kw):
    defaults = dict(fluents={"isAt": 1, "isHolding": 0},
                    observable={"isAt": True, "isHolding": True})
    defaults.update(kw)
    return World(registry(), **defaults)


class TestObserve:
    def test_noiseless_one_hot(self):
        obs = make_world().observe()
        assert obs["isAt"] == 1
        assert obs["isHolding"] == 0

    def test_unobservable_is_absent(self):
        w = make_world(observable={"isAt": False, "isHolding": True})
        obs = w.observe()
        assert obs["isAt"] is None
        assert obs["isHolding"] is not None

    def test_full_noise_always_wrong(self):
        w = make_world(noise_p=1.0)
        for _ in range(20):
            assert w.observe()["isAt"] == 0

    def test_seeded_noise_reproducible(self):
        a = make_world(noise_p=0.5, seed=123)
        b = make_world(noise_p=0.5, seed=123)
        for _ in range(50):
            oa, ob = a.observe(), b.observe()
            assert oa["isAt"] == ob["isAt"]


class TestActions:
    def test_runs_for_duration_then_applies_postconditions(self):
        w = make_world(deterministic=True)
        w.start_action(MOVE)
        for _ in range(2):
            w.step()
            assert w.running is not None
            assert w.fluents["isAt"] == 1  # atomic: no mid-run change
        w.step()
        assert w.running is None
        assert w.fluents["isAt"] == 0
        assert w.last_result.template is MOVE
        assert w.last_result.status == "succeeded"

    def test_double_start_is_protocol_error(self):
        w = make_world(deterministic=True)
        w.start_action(MOVE)
        with pytest.raises(ProtocolError):
            w.start_action(MOVE)

    def test_cancel(self):
        w = make_world(deterministic=True)
        run = w.start_action(MOVE)
        w.cancel_running()
        assert run.status == "cancelled"
        w.step()
        w.step()
        w.step()
        assert w.fluents["isAt"] == 1  # cancelled actions have no effect

    def test_zero_success_probability_always_fails(self):
        w = make_world(deterministic=False, seed=1)
        run = w.start_action(DOOMED)
        assert run.will_succeed is False
        for _ in range(3):
            w.step()
        assert w.fluents["isAt"] == 1
        assert w.last_result.status == "failed"

    def test_deterministic_mode_forces_success(self):
        for seed in range(10):
            w = make_world(deterministic=True, seed=seed)
            assert w.start_action(MOVE).will_succeed is True

    def test_seeded_outcome_reproducible(self):
        draws = []
        for _ in range(2):
            w = make_world(deterministic=False, seed=77)
            run = []
            for _ in range(20):
                run.append(w.start_action(MOVE).will_succeed)
                w.cancel_running()
            draws.append(run)
        assert draws[0] == draws[1]


class TestPerturbations:
    def test_applied_at_tick(self):
        w = make_world()
        schedule = [PerturbationEvent(2, (("isAt", 0),))]
        w.step(schedule)
        assert w.fluents["isAt"] == 1
        w.step(schedule)
        assert w.fluents["isAt"] == 0

    def test_applied_exactly_once(self):
        w = make_world()
        schedule = [PerturbationEvent(1, (("isAt", 0),))]
        w.step(schedule)
        assert w.fluents["isAt"] == 0
        w.fluents["isAt"] = 1
        w.step(schedule)
        assert w.fluents["isAt"] == 1  # not re-applied

    def test_observability_toggle(self):
        w = make_world()
        schedule = [PerturbationEvent(1, (), (("isAt", False),))]
        w.step(schedule)
        assert w.observe()["isAt"] is None

    def test_idle_world_only_advances_tick(self):
        w = make_world()
        before = dict(w.fluents)
        for _ in range(5):
            w.step()
        assert w.fluents == before
        assert w.tick == 5


class TestConstruction:
    def test_bad_fluent_index(self):
        with pytest.raises(ValueError):
            make_world(fluents={"isAt": 5, "isHolding": 0})


class TestNoiseTracking:
    def test_logical_state_tracks_truth_despite_noise(self):
        """With 20% observation noise on a binary state and default belief
        dynamics, the logical state matches the true fluent on at least 95%
        of 1000 idle ticks."""
        from btai.domain import logical_state, update_beliefs
        from btai.domain import compile_domain

        reg = StateRegistry([StateVar("flag", 2, ("on", "off"))])
        model = compile_domain(reg, []).model
        w = World(reg, {"flag": 0}, {"flag": True}, seed=0, noise_p=0.2)
        beliefs = reg.uniform_beliefs()
        hits = 0
        ticks = 1000
        for _ in range(ticks):
            beliefs = update_beliefs(beliefs, w.observe(), None, model)
            if logical_state(beliefs)["flag"] == w.fluents["flag"]:
                hits += 1
            w.step()
        assert hits / ticks >= 0.95
