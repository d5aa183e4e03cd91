"""Storage identifiers (Figure 7): format, uniqueness, parsing."""

import random
from dataclasses import replace

import pytest
from hypothesis import given, settings, strategies as st

from repro.common.oid import OidGenerator, SidFactory, StorageId


class TestStorageId:
    def test_printable_form_roundtrips(self):
        sid = StorageId(instance_id=123456789, local_oid=42)
        assert StorageId.parse(str(sid)) == sid

    def test_fixed_width_name(self):
        a = StorageId(instance_id=0, local_oid=0)
        b = StorageId(instance_id=(1 << 120) - 1, local_oid=(1 << 64) - 1)
        assert len(str(a)) == len(str(b)) == 48

    def test_field_bounds_validated(self):
        with pytest.raises(ValueError):
            StorageId(instance_id=1 << 120, local_oid=0)
        with pytest.raises(ValueError):
            StorageId(instance_id=0, local_oid=1 << 64)

    def test_prefix_is_instance_component(self):
        a = StorageId(instance_id=777, local_oid=1)
        b = StorageId(instance_id=777, local_oid=999)
        c = StorageId(instance_id=778, local_oid=1)
        assert a.prefix == b.prefix
        assert a.prefix != c.prefix
        assert str(a).startswith(a.prefix)

    def test_ordering_stable(self):
        sids = [StorageId(5, i) for i in range(5)]
        assert sorted(sids, reverse=True)[0] == sids[-1]

    @given(st.integers(0, (1 << 120) - 1), st.integers(0, (1 << 64) - 1))
    @settings(max_examples=50)
    def test_parse_roundtrip_property(self, instance, oid):
        sid = StorageId(instance_id=instance, local_oid=oid)
        assert StorageId.parse(str(sid)) == sid

    @given(st.integers(0, (1 << 120) - 1), st.integers(0, (1 << 64) - 1))
    @settings(max_examples=50)
    def test_name_is_formatted_once_and_is_not_part_of_identity(self, instance, oid):
        sid = StorageId(instance_id=instance, local_oid=oid)
        fresh = StorageId(instance_id=instance, local_oid=oid)
        name = str(sid)
        assert name == f"{(1 << 184) | (instance << 64) | oid:048x}"
        assert str(sid) is name  # the memo, not a second format
        assert sid.prefix == name[:32]
        # The memo is not a field: equality, hash, order and repr ignore it.
        assert sid == fresh and hash(sid) == hash(fresh) and not sid < fresh
        assert repr(sid) == repr(fresh)
        # ... and a changed copy does not inherit it.
        other = replace(sid, local_oid=oid ^ 1)
        assert str(other) != name and StorageId.parse(str(other)) == other


class TestSidFactory:
    def test_monotonic_local_oids(self):
        factory = SidFactory(random.Random(1))
        sids = [factory.next_sid() for _ in range(5)]
        assert [s.local_oid for s in sids] == [1, 2, 3, 4, 5]

    def test_restart_changes_instance_id(self):
        """Process restart -> new instance id, so SIDs of cloned clusters
        never collide (section 5.1)."""
        rng = random.Random(2)
        before = SidFactory(rng)
        after = SidFactory(rng)
        assert before.instance_id != after.instance_id
        assert str(before.next_sid()) != str(after.next_sid())

    def test_two_nodes_never_collide(self):
        a = SidFactory(random.Random(3))
        b = SidFactory(random.Random(4))
        names_a = {str(a.next_sid()) for _ in range(100)}
        names_b = {str(b.next_sid()) for _ in range(100)}
        assert not names_a & names_b

    def test_explicit_local_oid(self):
        factory = SidFactory(random.Random(5))
        sid = factory.next_sid(local_oid=0)
        assert sid.local_oid == 0


class TestOidGenerator:
    def test_sequence(self):
        gen = OidGenerator()
        assert [gen.next_oid() for _ in range(3)] == [1, 2, 3]

    def test_custom_start(self):
        gen = OidGenerator(start=100)
        assert gen.next_oid() == 100
