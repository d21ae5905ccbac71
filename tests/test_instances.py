"""Instance generation, the 20-node fixture, and persistence."""

import dataclasses
import hashlib
import json

import numpy as np
import pytest

from fuzzloc import instances
from fuzzloc.errors import DomainError, InstanceFormatError
from fuzzloc.instances import (
    TABLE1_SHA256,
    GeneratorParams,
    generate_instance,
    instance_from_dict,
    instance_to_dict,
    load_instance,
    save_instance,
    table1_bytes,
)


class TestGeneratorParams:
    def test_empty_range_rejected(self):
        with pytest.raises(DomainError):
            GeneratorParams(n=6, m_servers=2, demand_lo_range=(10, 4))

    def test_bad_offsets_rejected(self):
        with pytest.raises(DomainError):
            GeneratorParams(n=6, m_servers=2, demand_offsets=(100, 50))
        with pytest.raises(DomainError):
            GeneratorParams(n=6, m_servers=2, service_offsets=(0, 50))

    def test_nonpositive_distance_rejected(self):
        with pytest.raises(DomainError):
            GeneratorParams(n=6, m_servers=2, distance_range=(0, 10))

    def test_negative_seed_rejected(self):
        with pytest.raises(DomainError, match="seed must be non-negative"):
            GeneratorParams(n=6, m_servers=2, seed=-1)

    @pytest.mark.parametrize("field, value", [("seed", 1.5), ("seed", True), ("n", 6.0)])
    def test_counts_are_integers(self, field, value):
        """A float seed used to reach numpy as a TypeError, and seed True
        to draw the instance of seed 1."""
        with pytest.raises(DomainError, match=f"^{field} must be an integer, got {value!r}$"):
            GeneratorParams(**{"n": 6, "m_servers": 2, field: value})

    def test_float_m_servers_rejected(self):
        """An instance with m_servers 2.0 used to be drawn and saved, and the
        file then failed to load."""
        with pytest.raises(DomainError, match="^m_servers must be an integer, got 2.0$"):
            generate_instance(GeneratorParams(n=6, m_servers=2.0))


class TestGeneration:
    def test_deterministic(self):
        params = GeneratorParams(n=10, m_servers=3, seed=5)
        a = generate_instance(params)
        b = generate_instance(params)
        assert np.array_equal(a.distance, b.distance)
        assert np.array_equal(a.demand, b.demand)
        assert np.array_equal(a.service, b.service)

    def test_different_seeds_differ(self):
        a = generate_instance(GeneratorParams(n=10, m_servers=3, seed=0))
        b = generate_instance(GeneratorParams(n=10, m_servers=3, seed=1))
        assert not np.array_equal(a.distance, b.distance)

    def test_default_ranges(self):
        inst = generate_instance(GeneratorParams(n=50, m_servers=5, seed=3))
        assert np.all(inst.demand[:, 0] >= 4) and np.all(inst.demand[:, 0] <= 80)
        assert np.all(inst.demand[:, 1] >= 54) and np.all(inst.demand[:, 1] <= 130)
        assert np.all(inst.demand[:, 2] >= 104) and np.all(inst.demand[:, 2] <= 180)
        assert np.all(inst.service[:, 0] >= 144) and np.all(inst.service[:, 0] <= 190)
        off = inst.distance[~np.eye(50, dtype=bool)]
        assert np.all(off >= 1) and np.all(off <= 35)

    def test_offsets_fixed(self):
        inst = generate_instance(GeneratorParams(n=10, m_servers=2, seed=0))
        assert np.all(inst.demand[:, 1] - inst.demand[:, 0] == 50)
        assert np.all(inst.demand[:, 2] - inst.demand[:, 0] == 100)


class TestTable1Fixture:
    def test_checksum(self):
        assert hashlib.sha256(table1_bytes()).hexdigest() == TABLE1_SHA256

    def test_altered_bytes_rejected(self, monkeypatch):
        # still a valid instance file, so only the checksum can reject it
        altered = table1_bytes().replace(b'"mql": 25', b'"mql": 26', 1)
        assert altered != table1_bytes()
        monkeypatch.setattr(instances, "table1_bytes", lambda: altered)
        with pytest.raises(InstanceFormatError, match="checksum mismatch"):
            instances.load_table1()

    def test_shape_and_parameters(self, table1):
        assert table1.n == 20
        assert table1.m_servers == 5
        assert table1.mql == 25.0
        assert table1.gamma == 0.5
        assert table1.logit_sensitivity == 0.5
        assert table1.idle_min.as_tuple() == (0.1, 0.15, 0.2)

    def test_node_one_rates(self, table1):
        assert tuple(table1.demand[0]) == (60.0, 110.0, 160.0)
        assert tuple(table1.service[0]) == (189.0, 239.0, 289.0)

    def test_distances(self, table1):
        assert table1.distance[0, 1] == 2.0
        assert table1.distance[0, 2] == 33.0
        assert np.array_equal(table1.distance, table1.distance.T)
        assert np.all(np.diag(table1.distance) == 0)


class TestPersistence:
    def test_round_trip(self, tmp_path, table1):
        path = tmp_path / "t1.json"
        save_instance(table1, path)
        again = load_instance(path)
        assert again.n == table1.n
        assert again.m_servers == table1.m_servers
        assert np.array_equal(again.distance, table1.distance)
        assert np.array_equal(again.demand, table1.demand)
        assert np.array_equal(again.service, table1.service)
        assert again.idle_min == table1.idle_min
        assert (again.mql, again.gamma, again.logit_sensitivity) == (
            table1.mql, table1.gamma, table1.logit_sensitivity,
        )

    @pytest.mark.parametrize("weighted", [False, True])
    def test_round_trip_compares_equal(self, tmp_path, table1, weighted):
        instance = table1
        if weighted:
            instance = dataclasses.replace(table1, benefit_weight=table1.distance / 10)
        path = tmp_path / "t1.json"
        save_instance(instance, path)
        again = load_instance(path)
        assert again == instance and not again != instance
        assert again != table1 if weighted else again == table1

    def test_changed_demand_entry_compares_unequal(self, table1):
        demand = table1.demand.copy()
        demand[7, 2] += 1.0
        assert dataclasses.replace(table1, demand=demand) != table1
        assert dataclasses.replace(table1, mql=table1.mql + 1) != table1
        assert table1 != instance_to_dict(table1)

    def test_unhashable(self, table1):
        with pytest.raises(TypeError):
            hash(table1)

    def test_unordered_triple_rejected(self, tmp_path, small_instance):
        doc = instance_to_dict(small_instance)
        doc["demand"][0] = [10, 5, 20]
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(InstanceFormatError, match="not ordered"):
            load_instance(path)

    def test_unordered_idle_min_rejected(self, small_instance):
        doc = instance_to_dict(small_instance)
        doc["idle_min"] = [0.2, 0.1, 0.3]
        with pytest.raises(InstanceFormatError, match="not ordered"):
            instance_from_dict(doc)

    @pytest.mark.parametrize("idle, gamma", [([1, 1, 1], 0.5), ([0.5, 1, 1], 1)])
    def test_zero_capacity_threshold_rejected(self, tmp_path, small_instance, idle, gamma):
        doc = instance_to_dict(small_instance)
        doc["idle_min"], doc["gamma"] = idle, gamma
        path = tmp_path / "zero.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(InstanceFormatError, match="idle_min and gamma give a capacity "
                                                       "threshold of 0"):
            load_instance(path)

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize(
        "field", ["distance", "demand", "service", "benefit_weight", "mql", "logit_sensitivity"]
    )
    def test_non_finite_field_rejected(self, small_instance, field, value):
        # checked before the other rules, so a NaN distance is not reported
        # as an asymmetric matrix nor a NaN rate as an unordered triple
        doc = instance_to_dict(small_instance)
        if field == "distance":
            doc["distance"][0][1] = doc["distance"][1][0] = value
        elif field == "benefit_weight":
            doc["benefit_weight"] = np.ones((6, 6)).tolist()
            doc["benefit_weight"][2][3] = value
        elif field in ("demand", "service"):
            doc[field][0][2] = value
        else:
            doc[field] = value
        with pytest.raises(InstanceFormatError, match="finite"):
            instance_from_dict(doc)

    @pytest.mark.parametrize("value", [True, False, "4", "0.5"])
    @pytest.mark.parametrize("field", ["mql", "gamma", "logit_sensitivity", "idle_min", "demand",
                                       "service", "distance", "benefit_weight"])
    def test_non_number_rejected(self, small_instance, field, value):
        """A bool or a numeric string is not a number, as in result files:
        the loader names the field instead of reading true as 1.0 or "4" as
        4.0."""
        doc = instance_to_dict(small_instance)
        doc["benefit_weight"] = np.ones((6, 6)).tolist()
        if field == "distance":
            doc["distance"][0][1] = doc["distance"][1][0] = value
        elif field in ("demand", "service", "benefit_weight"):
            doc[field][2][1] = value
        elif field == "idle_min":
            doc["idle_min"][1] = value
        else:
            doc[field] = value
        with pytest.raises(InstanceFormatError, match=f"^{field} must be "):
            instance_from_dict(doc)

    def test_json_ints_load_as_floats(self, small_instance):
        """JSON ints and floats are numbers: an integral value written as an
        int loads as the float it names."""
        doc = instance_to_dict(small_instance)
        doc["mql"] = int(doc["mql"])
        for key in ("demand", "service", "distance"):
            doc[key] = [[int(v) for v in row] for row in doc[key]]
        doc["benefit_weight"] = [[1] * 6] * 6
        loaded = instance_from_dict(json.loads(json.dumps(doc)))
        assert loaded == dataclasses.replace(small_instance, benefit_weight=np.ones((6, 6)))
        assert loaded.distance.dtype == loaded.demand.dtype == np.float64
        assert isinstance(loaded.mql, float)

    def test_missing_field_rejected(self, small_instance):
        doc = instance_to_dict(small_instance)
        del doc["service"]
        with pytest.raises(InstanceFormatError, match="service"):
            instance_from_dict(doc)

    @pytest.mark.parametrize("keys, named", [
        (["benefit_weights"], "benefit_weights"),
        (["idle_mn"], "idle_mn"),
        (["zeta", "idle_mn", "benefit_weights"], "benefit_weights"),
    ], ids=["plural", "misspelt", "first-sorted"])
    def test_unknown_field_rejected(self, small_instance, keys, named):
        """A key outside the nine required keys and benefit_weight is
        named, the first in sorted order, and not silently dropped."""
        doc = instance_to_dict(small_instance)
        for key in keys:
            doc[key] = 0.1
        with pytest.raises(InstanceFormatError, match=f"^unknown field '{named}'$"):
            instance_from_dict(doc)

    def test_malformed_distance_row_named(self, small_instance):
        doc = instance_to_dict(small_instance)
        doc["distance"][2] = doc["distance"][2][:-1]
        with pytest.raises(InstanceFormatError, match="row 3"):
            instance_from_dict(doc)

    @pytest.mark.parametrize("field", ["demand", "service", "distance"])
    def test_wrong_row_count_rejected(self, small_instance, field):
        doc = instance_to_dict(small_instance)
        doc[field] = doc[field][:-1]
        with pytest.raises(InstanceFormatError, match=f"^{field} has 5 rows, expected 6$"):
            instance_from_dict(doc)

    def test_invalid_json_reports_line(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{\n  \"n\": 6,\n")
        with pytest.raises(InstanceFormatError, match="line"):
            load_instance(path)

    def test_non_utf8_file_rejected(self, tmp_path):
        path = tmp_path / "bin.json"
        path.write_bytes(b"\xff\xfe\x00bad")
        with pytest.raises(InstanceFormatError) as info:
            load_instance(path)
        assert str(info.value) == f"{path}: not UTF-8 text at byte 0"

    def test_non_object_rejected(self, tmp_path):
        path = tmp_path / "arr.json"
        path.write_text("[1, 2, 3]")
        with pytest.raises(InstanceFormatError, match="object"):
            load_instance(path)
