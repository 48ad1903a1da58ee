"""Unit tests for the copy-on-write object layer (`repro.store.cow`)."""

import copy
import json
import pickle

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.store.cow import (
    CopyMeter,
    CowList,
    CowMap,
    FrozenViewError,
    SharedState,
    copy_value,
    diff_shared,
    estimate_size,
    freeze,
    is_frozen,
    mask_shared,
    merge_patch,
    merge_shared,
    set_shared,
    thaw,
)
from repro.util.paths import PathError, set_path


class TestFreeze:
    def test_freeze_produces_frozen_views(self):
        value = {"a": 1, "b": {"c": [1, 2, {"d": 3}]}}
        frozen = freeze(value)
        assert is_frozen(frozen)
        assert isinstance(frozen, dict)  # still a dict: isinstance-safe
        assert isinstance(frozen["b"], CowMap)
        assert isinstance(frozen["b"]["c"], CowList)
        assert frozen == value

    def test_freeze_is_idempotent_and_shares(self):
        frozen = freeze({"a": {"b": 1}})
        assert freeze(frozen) is frozen

    def test_tuple_becomes_frozen_list(self):
        frozen = freeze({"t": (1, 2)})
        assert isinstance(frozen["t"], CowList)
        assert frozen["t"] == [1, 2]

    def test_scalars_pass_through(self):
        for scalar in (None, True, 3, 2.5, "s"):
            assert freeze(scalar) is scalar

    def test_json_serializable(self):
        frozen = freeze({"a": [1, {"b": 2}]})
        assert json.loads(json.dumps(frozen)) == {"a": [1, {"b": 2}]}


class TestFrozenSemantics:
    def test_map_mutators_raise(self):
        frozen = freeze({"a": 1})
        with pytest.raises(FrozenViewError):
            frozen["b"] = 2
        with pytest.raises(FrozenViewError):
            del frozen["a"]
        with pytest.raises(FrozenViewError):
            frozen.update({"b": 2})
        with pytest.raises(FrozenViewError):
            frozen.pop("a")
        with pytest.raises(FrozenViewError):
            frozen.clear()
        with pytest.raises(FrozenViewError):
            frozen.setdefault("b", 2)
        assert frozen == {"a": 1}

    def test_list_mutators_raise(self):
        frozen = freeze([1, 2])
        with pytest.raises(FrozenViewError):
            frozen.append(3)
        with pytest.raises(FrozenViewError):
            frozen[0] = 9
        with pytest.raises(FrozenViewError):
            frozen.sort()
        with pytest.raises(FrozenViewError):
            frozen += [3]
        assert list(frozen) == [1, 2]

    def test_frozen_error_is_a_type_error(self):
        # Code catching TypeError for "immutable" keeps working.
        assert issubclass(FrozenViewError, TypeError)

    def test_thaw_gives_plain_mutable_copy(self):
        frozen = freeze({"a": {"b": [1]}})
        mine = frozen.thaw()
        assert type(mine) is dict
        assert type(mine["a"]) is dict
        assert type(mine["a"]["b"]) is list
        mine["a"]["b"].append(2)
        assert frozen["a"]["b"] == [1]

    def test_deepcopy_gives_plain_mutable_copy(self):
        frozen = freeze({"a": {"b": [1]}})
        mine = copy.deepcopy(frozen)
        assert type(mine) is dict
        mine["a"]["b"].append(2)
        assert frozen["a"]["b"] == [1]

    def test_shallow_copy_gives_plain_dict(self):
        frozen = freeze({"a": 1})
        assert type(copy.copy(frozen)) is dict
        assert type(dict(frozen)) is dict


class TestMergeShared:
    def test_merge_semantics_match_merge_patch(self):
        base = {"a": {"x": 1, "y": 2}, "b": 1, "c": [1, 2]}
        patch = {"a": {"y": 9, "z": 3}, "b": None, "d": "new"}
        assert merge_shared(freeze(base), patch) == merge_patch(base, patch)

    def test_base_is_untouched(self):
        base = freeze({"a": {"x": 1}})
        merge_shared(base, {"a": {"x": 2}})
        assert base == {"a": {"x": 1}}

    def test_untouched_subtrees_are_shared(self):
        base = freeze({"hot": {"v": 1}, "cold": {"big": [1] * 100}})
        merged = merge_shared(base, {"hot": {"v": 2}})
        assert merged["cold"] is base["cold"]  # pointer-shared, not copied
        assert merged["hot"]["v"] == 2

    def test_result_is_frozen(self):
        merged = merge_shared(freeze({"a": 1}), {"b": {"c": 2}})
        assert is_frozen(merged)
        assert is_frozen(merged["b"])
        with pytest.raises(FrozenViewError):
            merged["b"]["c"] = 9

    def test_none_deletes(self):
        merged = merge_shared(freeze({"a": 1, "b": 2}), {"a": None})
        assert merged == {"b": 2}

    def test_meter_charges_path_not_object(self):
        meter = CopyMeter()
        base = freeze({"hot": {"v": 1}, "cold": {"blob": "x" * 10_000}})
        merge_shared(base, {"hot": {"v": 2}}, meter)
        # A deepcopy would have cost >10KB; the path copy is tiny.
        assert 0 < meter.copied_bytes < 1_000


class TestSetShared:
    STATE = {"a": {"b": {"c": 1, "keep": [1]}, "rows": [{"v": 1}, {"v": 2}]},
             "n": 3, "cold": {"blob": "x"}}

    @pytest.mark.parametrize("path", [
        "n", "new", "a.b.c", "a.b.new", "a.new.deeper", "a.rows.1.v",
        "a.rows.0", "x.y.z", ("a", "b", "c"),
    ])
    def test_equals_set_path_and_leaves_shared_state_alone(self, path):
        frozen = freeze(self.STATE)
        owned = dict(frozen)  # the caller owns only the top level
        set_shared(owned, path, "W")
        expected = copy.deepcopy(self.STATE)
        set_path(expected, path, "W")
        assert owned == expected
        assert frozen == self.STATE
        assert owned["cold"] is frozen["cold"]  # off the path: shared
        set_shared(owned, path, "W2")  # its own copies are writable again

    @pytest.mark.parametrize("path, error", [
        ("n.deeper", PathError), ("n.deeper.still", PathError),
        ("a.rows.7.v", IndexError), ("a.rows.x", ValueError),
    ])
    def test_fails_like_set_path(self, path, error):
        owned = dict(freeze(self.STATE))
        with pytest.raises(error):
            set_path(copy.deepcopy(self.STATE), path, "W")
        with pytest.raises(error):
            set_shared(owned, path, "W")


class TestDiffShared:
    def test_diff_roundtrips_through_merge(self):
        old = freeze({"a": {"x": 1, "y": 2}, "b": 1, "keep": "k"})
        new = freeze({"a": {"x": 1, "y": 9, "z": 3}, "keep": "k", "c": [1]})
        delta = diff_shared(old, new)
        assert merge_shared(old, delta) == new

    def test_equal_objects_diff_empty(self):
        value = freeze({"a": {"b": [1, 2]}})
        assert diff_shared(value, value) == {}

    def test_removed_keys_become_none(self):
        assert diff_shared({"a": 1, "b": 2}, {"a": 1}) == {"b": None}

    def test_nested_change_is_minimal(self):
        old = {"a": {"x": 1, "y": 2}, "blob": "x" * 1000}
        new = {"a": {"x": 1, "y": 3}, "blob": "x" * 1000}
        delta = diff_shared(old, new)
        assert delta == {"a": {"y": 3}}
        assert estimate_size(delta) < estimate_size(new) / 10


class TestMaskShared:
    def test_masks_secret_leaves(self):
        data = freeze({"public": 1, "card": {"number": "4111", "exp": "12/30"}})
        masked = mask_shared(data, ["card.number"])
        assert masked == {"public": 1, "card": {"exp": "12/30"}}
        assert data["card"]["number"] == "4111"  # original intact

    def test_unmasked_subtrees_shared(self):
        data = freeze({"keep": {"big": [1] * 50}, "secret": "s"})
        masked = mask_shared(data, ["secret"])
        assert masked["keep"] is data["keep"]

    def test_missing_paths_are_noops(self):
        data = freeze({"a": 1})
        assert mask_shared(data, ["nope", "a.b.c"]) == {"a": 1}

    def test_scalar_parent_not_replaced(self):
        # Masking x.y where x is a scalar must not turn x into a dict.
        data = freeze({"x": 5})
        assert mask_shared(data, ["x.y"]) == {"x": 5}


class TestCopyMeter:
    def test_records_by_site(self):
        meter = CopyMeter()
        copy_value({"a": "x" * 100}, meter, "snapshot")
        copy_value({"b": 1}, meter, "mask")
        snap = meter.snapshot()
        assert snap["copies"] == 2
        assert set(snap["by_site"]) == {"snapshot", "mask"}
        assert snap["copied_bytes"] > 100

    def test_shared_accounting(self):
        meter = CopyMeter()
        meter.shared(500)
        assert meter.shared_views == 1
        assert meter.shared_bytes_avoided == 500

    def test_merge_snapshots(self):
        a, b = CopyMeter(), CopyMeter()
        a.record(100, "ingest")
        b.record(50, "ingest")
        b.record(10, "merge")
        merged = CopyMeter.merge_snapshots([a.snapshot(), b.snapshot()])
        assert merged["copied_bytes"] == 160
        assert merged["by_site"] == {"ingest": 150, "merge": 10}


class TestThaw:
    def test_thaw_deep(self):
        frozen = freeze({"a": [{"b": 1}]})
        plain = thaw(frozen)
        assert type(plain) is dict
        assert type(plain["a"]) is list
        assert type(plain["a"][0]) is dict

    def test_thaw_passthrough_scalars(self):
        assert thaw(5) == 5
        assert thaw("s") == "s"


def plain_size(value):
    """The byte model, walked from scratch with no memo in sight."""
    if value is None:
        return 4
    if isinstance(value, bool):
        return 5
    if isinstance(value, (int, float)):
        return 8
    if isinstance(value, str):
        return len(value) + 2
    if isinstance(value, (list, tuple)):
        return 2 + sum(plain_size(v) + 1 for v in value)
    if isinstance(value, dict):
        return 2 + sum(
            plain_size(k) + plain_size(v) + 2 for k, v in value.items()
        )
    return 16


_leaves = st.one_of(
    st.none(), st.booleans(), st.integers(-1000, 1000),
    st.floats(allow_nan=False), st.text(max_size=12),
)
_keys = st.text(alphabet="abcdef", min_size=1, max_size=2)
_trees = st.recursive(
    _leaves,
    lambda inner: st.one_of(
        st.lists(inner, max_size=4), st.dictionaries(_keys, inner, max_size=4)
    ),
    max_leaves=20,
)
_maps = st.dictionaries(_keys, _trees, max_size=5)
#: One step of a chain: ("merge", patch) | ("mask", paths) | ("diff", target).
_steps = st.one_of(
    st.tuples(st.just("merge"), _maps),
    st.tuples(st.just("mask"), st.lists(
        st.lists(_keys, min_size=1, max_size=3).map(".".join), max_size=3)),
    st.tuples(st.just("diff"), _maps),
)


class _Str(str):
    pass


class _Int(int):
    pass


class _Dict(dict):
    pass


class _List(list):
    pass


#: Beyond JSON: subclasses take the ``isinstance`` rules, ``bool``
#: sits beside ``int``, ints outgrow a machine word, and a foreign
#: object is 16 bytes.
_wide_leaves = st.one_of(
    _leaves, st.integers(), st.integers(-5, 5).map(_Int),
    st.text(max_size=6).map(_Str), st.builds(object),
)
_wide_trees = st.recursive(
    _wide_leaves,
    lambda inner: st.one_of(
        st.lists(inner, max_size=4),
        st.lists(inner, max_size=3).map(tuple),
        st.lists(inner, max_size=3).map(_List),
        st.dictionaries(_keys, inner, max_size=4),
        st.dictionaries(_keys.map(_Str), inner, max_size=3).map(_Dict),
    ),
    max_leaves=20,
)
_wide_maps = st.dictionaries(_keys, _wide_trees, max_size=4)
_paths = st.lists(st.lists(_keys, min_size=1, max_size=3).map(".".join),
                  max_size=3)


def frozen_nodes(value):
    """Every frozen container in ``value``, depth first."""
    if isinstance(value, (CowMap, CowList)):
        yield value
        for child in value.values() if isinstance(value, dict) else value:
            yield from frozen_nodes(child)


class TestSizedWhenBuilt:
    @settings(max_examples=200, deadline=None)
    @given(value=_wide_trees)
    def test_estimate_size_matches_the_reference(self, value):
        assert estimate_size(value) == plain_size(value)
        assert estimate_size(freeze(value)) == plain_size(value)

    @settings(max_examples=150, deadline=None)
    @given(start=_wide_maps, patch=_wide_maps, paths=_paths)
    def test_every_built_node_carries_its_size(self, start, patch, paths):
        base = freeze(start)
        merged = merge_shared(base, patch)
        built = {
            "freeze": base,
            "merge": merged,
            "mask": mask_shared(merged, paths),
            "ingest": SharedState().ingest(
                start, stamp={"_seq": 7, "_ts": 0.5}),
        }
        for site, root in built.items():
            for node in frozen_nodes(root):
                assert node._size == plain_size(node), site

    def test_a_patch_carrying_an_unsized_node_leaves_no_memo(self):
        inner = {"v": 1}
        merged = merge_shared(freeze({"a": {"b": 1}}),
                              {"a": {"held": CowMap({"inner": inner})}})
        assert not hasattr(merged, "_size")
        assert not hasattr(merged["a"], "_size")
        inner["grown"] = "x" * 40
        assert estimate_size(merged) == plain_size(thaw(merged))


class TestSizeMemo:
    @settings(max_examples=150, deadline=None)
    @given(value=_trees)
    def test_frozen_size_equals_plain_size(self, value):
        assert estimate_size(value) == plain_size(value)
        frozen = freeze(value)
        assert estimate_size(frozen) == plain_size(value)
        assert estimate_size(frozen) == plain_size(value)  # the memo hit

    @settings(max_examples=150, deadline=None)
    @given(start=_maps, steps=st.lists(_steps, max_size=6),
           size_between=st.booleans())
    def test_memo_survives_path_copy_chains(self, start, steps, size_between):
        # Sizing intermediate versions fills memos the later versions
        # share; not sizing them leaves the same nodes to be walked.
        current = freeze(start)
        for verb, arg in steps:
            if size_between:
                estimate_size(current)
            if verb == "merge":
                current = merge_shared(current, arg)
            elif verb == "mask":
                current = mask_shared(current, arg)
            else:
                delta = diff_shared(current, freeze(arg))
                assert estimate_size(delta) == plain_size(thaw(delta))
                current = merge_shared(current, delta)
            assert estimate_size(current) == plain_size(thaw(current))
            assert estimate_size(current) == plain_size(thaw(current))

    def test_patched_object_reuses_shared_memos(self):
        base = freeze({"hot": {"v": 1}, "cold": {"big": list(range(50))}})
        estimate_size(base)
        merged = merge_shared(base, {"hot": {"v": 2}})
        assert merged["cold"]._size == plain_size(thaw(base["cold"]))
        # Re-created by the merge, and sized as it was built.
        assert merged._size == plain_size(thaw(merged))
        assert merged["hot"]._size == plain_size({"v": 2})
        assert estimate_size(merged) == merged._size

    def test_node_over_plain_children_is_never_memoised(self):
        # A hand-built frozen node aliases its mutable child: a memo
        # would go stale, so there is none, at any depth.
        inner = {"v": 1}
        root = CowMap({"held": CowMap({"inner": inner}), "n": 1})
        before = estimate_size(root)
        inner["grown"] = "x" * 40
        assert estimate_size(root) == plain_size(thaw(root)) > before
        assert not hasattr(root, "_size")
        assert not hasattr(root["held"], "_size")

    def test_merge_onto_plain_base_stays_correct(self):
        plain = {"keep": {"v": 1}, "hot": 1}
        merged = merge_shared(plain, {"hot": 2})
        estimate_size(merged)
        plain["keep"]["more"] = "y" * 30  # still aliased by ``merged``
        assert estimate_size(merged) == plain_size(thaw(merged))

    def test_copies_and_pickles_drop_the_memo(self):
        frozen = freeze({"a": {"b": [1, 2]}, "c": "s"})
        size = estimate_size(frozen)
        for clone in (copy.copy(frozen), copy.deepcopy(frozen),
                      pickle.loads(pickle.dumps(frozen))):
            assert type(clone) is dict and clone == frozen
            clone["extra"] = "x" * 10
            assert estimate_size(clone) == plain_size(clone) > size
        for clone in (copy.copy(frozen["a"]["b"]),
                      copy.deepcopy(frozen["a"]["b"]),
                      pickle.loads(pickle.dumps(frozen["a"]["b"]))):
            assert type(clone) is list and clone == [1, 2]
        assert estimate_size(frozen) == size

    def test_blocked_mutators_leave_the_memo_valid(self):
        frozen = freeze({"a": [1, 2], "b": {"c": 1}})
        size = estimate_size(frozen)
        for attempt in (
            lambda: frozen.update(z=1), lambda: frozen.pop("a"),
            lambda: frozen.setdefault("z", 1), lambda: frozen.clear(),
            lambda: frozen["a"].append(3), lambda: frozen["a"].sort(),
            lambda: frozen["b"].popitem(),
        ):
            with pytest.raises(FrozenViewError):
                attempt()
        assert estimate_size(frozen) == size == plain_size(thaw(frozen))

    def test_memo_is_a_slot_not_a_dict(self):
        frozen = freeze({"a": [1]})
        estimate_size(frozen)
        assert not hasattr(frozen, "__dict__")
        assert not hasattr(frozen["a"], "__dict__")
