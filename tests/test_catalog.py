import hashlib
import json

import pytest

from linnij.catalog import (
    FORMAT_TAG,
    CatalogEntry,
    catalog_path,
    generalized_L1,
    generalized_L2,
    generalized_blocks,
    load_catalog,
    save_catalog,
    verify_entry,
)
from linnij.errors import DimensionMismatchError, FormatError
from linnij.polymatrix import charpoly_sigmas
from linnij.nijenhuis import torsion


EXPECTED_IDS = [
    "d", "b4+", "b4-", "c5+", "c5-",
    "b4+⊕d", "b4-⊕d", "c5+⊕d", "c5-⊕d",
    "ind3.1", "ind3.2", "ind3.3", "ind3.4",
    "L1", "L2", "L3", "L4", "L5+", "L5-", "L6+", "L6-", "L7", "L8",
]


def test_catalog_contents():
    entries = load_catalog()
    assert [e.id for e in entries] == EXPECTED_IDS
    by_id = {e.id: e for e in entries}
    assert by_id["d"].dim == 1
    assert all(by_id[k].dim == 2 for k in ("b4+", "b4-", "c5+", "c5-"))
    assert all(
        e.dim == 3 for e in entries if e.id not in ("d", "b4+", "b4-", "c5+", "c5-")
    )
    for e in entries:
        expected_rad = 3 if e.id in ("L3", "L4", "L7", "L8") else 0
        assert e.radicand == expected_rad, e.id


#: SHA-256 of each entry's canonical JSON rendering (sorted keys, no
#: whitespace).  Any edit to the shipped data, or to how an entry is parsed
#: and rendered back, changes a digest here.  The nine entries with a change
#: were recorded again when the change target moved into the data; each new
#: rendering is the old one plus its ``target``.
PINNED_DIGESTS = {
    "d": "fd6f9a31deaa7c5b85671d82cfbc0b3dc0c7ade921e609e8ce5ca57f92c5f3a8",
    "b4+": "2ba0f2d43ebf19ce9f2ab4ba96fdee507fabe47a79985441f970030877d39b5f",
    "b4-": "29e6cadf10551a0a70ae683805e6ec4b8fec9b152e31d8131fa170481336c0c7",
    "c5+": "117f011b6b70c368dd217d1bbaa5fe084413d72748dfbbdf9c94c19b4689a406",
    "c5-": "837a15637ccdb4ec0086a774d591143e40ffb08a4cfa9a64095701ce1afcb586",
    "b4+⊕d": "00cd7186c48cacd57015269832f0de28cf3988ffd287f6e0cd5476b60aa9a196",
    "b4-⊕d": "6a21092df35e66e4a82f84a295b9d4303dd522f1739f8c3c25f8f3a99d40bcd6",
    "c5+⊕d": "45e500196be1925f682e9dc5e402893badf28cca0bc5a53ae2d0214a70a11889",
    "c5-⊕d": "b0830c189c28b09ff8f123e03ec80890eb28d55e3e89b70b5607b200a9aadfcc",
    "ind3.1": "c592a85ebe35fbb13f1eb739e4a537a535f4d2055c95fcfad99eafb070849959",
    "ind3.2": "1aff738c973076ddc388f05c470335f851077f198ab73a0f28d735a25fcbc79d",
    "ind3.3": "d079ce195c6c662cd867a11118bb98c78398aa95b7c416489d5582ab55adefca",
    "ind3.4": "49b6de07242aab672d443ec86160388c505dfc55ac21b912d11e4ff8fa1666b6",
    "L1": "a44fe7a47af7b5611d072f73cda96127bf8b0691f7d605795426936b88780330",
    "L2": "d7a3e858e54c302abb8b1d61c8971e842cbd6f6e0c7094fd4435164e3370dbb6",
    "L3": "ddbb9d8c5e7713f48d0d142f032a6e8186581b94deee07042caf449fb693e522",
    "L4": "3432792de59c8ce90eca0b2a6289142f8babde34a02f10d299468e8b5815116e",
    "L5+": "f37cf16edc508a3908026a67a0a154f8f2fd4c556a07729190b62047c99670fd",
    "L5-": "07bdc5558baa36a817d760df1cfff78907ca4801c4cd3dcd302662a2997ed7f9",
    "L6+": "98243e652981a1672378ad42a64dbb7e2506fae03657397d6400ff1b1d6f63a1",
    "L6-": "a89f38265f01f3f2848b5e0294314a3e29d740fc451d71c05da36174afdb9bfe",
    "L7": "68516ca2e3159578c3ee7ac879650178f2b4935e2d6a9a57660896712f2b8dcc",
    "L8": "b3e02bac2c2aab47efa4d5534fc9cde3f619cc2e63b4d82ac1bfee72f1e8af91",
}


def _canonical_digest(entry):
    text = json.dumps(entry.to_json_dict(), sort_keys=True,
                      ensure_ascii=False, separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def test_packaged_catalog_is_canonical(tmp_path):
    assert catalog_path().name == "catalog.json"
    path = tmp_path / "catalog.json"
    save_catalog(load_catalog(), path)
    assert path.read_bytes() == catalog_path().read_bytes()


def test_packaged_catalog_matches_pinned_digests():
    digests = {e.id: _canonical_digest(e) for e in load_catalog()}
    assert digests == PINNED_DIGESTS


def test_every_entry_verifies():
    entries = load_catalog()
    targets = {e.id: e for e in entries}
    for entry in entries:
        report = verify_entry(entry, targets=targets)
        assert report.ok, (entry.id, report.failures())
        names = [name for name, _, _ in report.checks]
        expected = ["torsion", "charpoly", "relations", "nondegenerate",
                    "covariance"]
        if entry.change is not None:
            expected.append("change")
        assert names == expected, entry.id


def test_change_check_loads_its_own_targets():
    by_id = {e.id: e for e in load_catalog()}
    report = verify_entry(by_id["L3"])
    assert ("change", True, None) in report.checks
    assert report.ok


def test_change_check_reports_its_failures():
    by_id = {e.id: e for e in load_catalog()}
    entry = by_id["L2"]
    report = verify_entry(entry, targets={})
    assert report.failures() == [("change", "missing target entry 'ind3.3'")]

    change = [list(row) for row in entry.change]
    change[1] = [-v for v in change[1]]
    tampered = CatalogEntry(entry.id, entry.dim, entry.operator, entry.sigmas,
                            entry.relations, tuple(map(tuple, change)),
                            entry.target)
    report = verify_entry(tampered, targets=by_id)
    assert report.failures() == [
        ("change", "mapped operator differs from 'ind3.3' at "
                   "[(1, 1), (1, 2), (1, 3), (2, 1), (2, 3), (3, 3)]")]


def test_change_check_rejects_a_target_of_another_dimension():
    by_id = {e.id: e for e in load_catalog()}
    report = verify_entry(by_id["L2"], targets={"ind3.3": by_id["b4+"]})
    assert report.failures() == [
        ("change", "target entry 'ind3.3' has dimension 2")]


def test_report_shape():
    entry = load_catalog()[0]
    report = verify_entry(entry)
    data = report.to_json_dict()
    assert data["id"] == entry.id
    assert data["ok"] is True
    assert all(check["ok"] for check in data["checks"])
    assert report.failures() == []


def test_json_round_trip(tmp_path):
    entries = load_catalog()
    path = tmp_path / "catalog.json"
    save_catalog(entries, path)
    raw = json.loads(path.read_text())
    assert raw["format"] == FORMAT_TAG
    assert len(raw["entries"]) == len(EXPECTED_IDS)
    assert load_catalog(path) == entries


def test_load_rejects_malformed(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text("not json")
    with pytest.raises(FormatError):
        load_catalog(path)
    path.write_text(json.dumps({"format": "something-else/9", "entries": []}))
    with pytest.raises(FormatError):
        load_catalog(path)
    path.write_text(json.dumps({"format": FORMAT_TAG, "entries": [{"id": "x"}]}))
    with pytest.raises(FormatError):
        load_catalog(path)


def test_load_rejects_wrong_radicand(tmp_path):
    entries = load_catalog()
    path = tmp_path / "catalog.json"
    save_catalog(entries, path)
    raw = json.loads(path.read_text())
    for item in raw["entries"]:
        if item["id"] == "L3":
            item["radicand"] = 5
    path.write_text(json.dumps(raw))
    with pytest.raises(FormatError):
        load_catalog(path)


@pytest.mark.parametrize("entry_id, edit, message", [
    ("L2", lambda item: item.pop("target"), "malformed catalog entry"),
    ("d", lambda item: item.update(target="b4+"), "has a target but no change"),
    ("L2", lambda item: item.update(target=["ind3.3"]), "target is not a string"),
    ("L2", lambda item: item.update(target=None), "target is not a string"),
    ("d", lambda item: item.pop("radicand"), "malformed catalog entry"),
], ids=["change-without-target", "target-without-change", "target-list",
        "target-null", "no-radicand"])
def test_load_rejects_malformed_target_and_radicand(tmp_path, entry_id, edit,
                                                    message):
    path = tmp_path / "catalog.json"
    save_catalog(load_catalog(), path)
    raw = json.loads(path.read_text(encoding="utf-8"))
    edit(next(item for item in raw["entries"] if item["id"] == entry_id))
    path.write_text(json.dumps(raw), encoding="utf-8")
    with pytest.raises(FormatError, match=message):
        load_catalog(path)


@pytest.mark.parametrize("edit, message", [
    (lambda item: item.update(id=5), "entry id 5 is not a string"),
    (lambda item: item.update(id=None), "entry id None is not a string"),
    (lambda item: item.update(dim=True), "entry 'L2' dim True is not a positive int"),
    (lambda item: item.update(dim=3.0), "entry 'L2' dim 3.0 is not a positive int"),
    (lambda item: item.update(dim="3"), "entry 'L2' dim '3' is not a positive int"),
    (lambda item: item.update(dim=0), "entry 'L2' dim 0 is not a positive int"),
    (lambda item: item["change"].pop(), r"entry 'L2' change is not 3x3"),
    (lambda item: item["change"][1].append("0"), r"entry 'L2' change is not 3x3"),
    (lambda item: item["change"].append(["0", "0", "1"]), r"entry 'L2' change is not 3x3"),
], ids=["id-int", "id-null", "dim-true", "dim-float", "dim-str", "dim-0",
        "change-2-rows", "change-ragged", "change-4-rows"])
def test_load_rejects_malformed_id_dim_and_change(tmp_path, edit, message):
    path = tmp_path / "catalog.json"
    save_catalog(load_catalog(), path)
    raw = json.loads(path.read_text(encoding="utf-8"))
    edit(next(item for item in raw["entries"] if item["id"] == "L2"))
    path.write_text(json.dumps(raw), encoding="utf-8")
    with pytest.raises(FormatError, match=message):
        load_catalog(path)


def test_singular_change_is_a_failed_check(tmp_path):
    path = tmp_path / "catalog.json"
    save_catalog(load_catalog(), path)
    raw = json.loads(path.read_text(encoding="utf-8"))
    item = next(item for item in raw["entries"] if item["id"] == "L2")
    item["change"][2] = item["change"][0]
    path.write_text(json.dumps(raw), encoding="utf-8")
    by_id = {e.id: e for e in load_catalog(path)}
    report = verify_entry(by_id["L2"], targets=by_id)
    assert [name for (name, _, _) in report.checks][-1] == "change"
    assert report.failures() == [("change", "change matrix is singular")]


@pytest.mark.parametrize("bad", [True, 1.0], ids=["true", "1.0"])
def test_load_rejects_relation_indices_that_are_not_ints(tmp_path, bad):
    path = tmp_path / "catalog.json"
    save_catalog(load_catalog(), path)
    raw = json.loads(path.read_text())
    assert raw["entries"][0]["relations"][0]["i"] == 1
    raw["entries"][0]["relations"][0]["i"] = bad
    path.write_text(json.dumps(raw))
    with pytest.raises(DimensionMismatchError):
        load_catalog(path)


def test_entry_change_must_be_dim_by_dim():
    # checked when the entry is built, as the operator's shape is, so that
    # verify_entry never meets a change it cannot substitute
    e = next(e for e in load_catalog() if e.id == "L2")
    for change in (e.change[:2], e.change + e.change[:1],
                   tuple(row[:2] for row in e.change)):
        with pytest.raises(DimensionMismatchError, match="change must be 3x3"):
            CatalogEntry(e.id, e.dim, e.operator, e.sigmas, e.relations,
                         change=change, target=e.target)
    rebuilt = CatalogEntry(e.id, e.dim, e.operator, e.sigmas, e.relations,
                           change=e.change, target=e.target)
    assert verify_entry(rebuilt).ok


def test_entries_are_immutable():
    entry = load_catalog()[0]
    with pytest.raises(AttributeError):
        entry.id = "other"


def test_expansion_targets_are_attached():
    by_id = {e.id: e for e in load_catalog()}
    assert by_id["L2"].target == "ind3.3"
    assert by_id["L5+"].target == "b4+⊕d"
    assert by_id["d"].target is None and by_id["d"].change is None


def test_generalized_families_verify():
    for n in (2, 3, 4, 5):
        entry = generalized_L1(n)
        assert entry.dim == n
        assert verify_entry(entry).ok
    for n in (3, 4, 5):
        assert verify_entry(generalized_L2(n)).ok
    assert verify_entry(generalized_blocks(3)).ok
    assert verify_entry(generalized_blocks(4, [1])).ok
    assert verify_entry(generalized_blocks(5, [1, -1])).ok


def test_generalized_families_match_fixed_tables():
    by_id = {e.id: e for e in load_catalog()}

    def same_data(a, b):
        return a.operator == b.operator and a.sigmas == b.sigmas

    assert same_data(generalized_L1(3), by_id["ind3.4"])
    assert same_data(generalized_L2(3), by_id["ind3.3"])
    assert same_data(generalized_blocks(3, [-1]), by_id["ind3.1"])
    assert same_data(generalized_blocks(3, [1]), by_id["ind3.2"])


def test_generalized_families_are_flat_with_exact_sigmas():
    for entry in (generalized_L1(6), generalized_L2(6), generalized_blocks(6)):
        assert torsion(entry.operator).is_zero()
        assert charpoly_sigmas(entry.operator) == list(entry.sigmas)


def test_blocks_sigmas_from_the_factorization_match_berkowitz():
    # the closed form is the product over the blocks; Berkowitz reads the
    # operator alone, for every sign pattern
    for n in range(3, 13):
        nblocks = (n - 1) // 2
        for pattern in range(2 ** nblocks):
            signs = [-1 if pattern >> j & 1 else 1 for j in range(nblocks)]
            entry = generalized_blocks(n, signs)
            assert list(entry.sigmas) == charpoly_sigmas(entry.operator), (n, signs)


def test_generalized_family_argument_errors():
    with pytest.raises(DimensionMismatchError):
        generalized_L1(1)
    with pytest.raises(DimensionMismatchError):
        generalized_L2(2)
    with pytest.raises(DimensionMismatchError):
        generalized_blocks(2)
    with pytest.raises(DimensionMismatchError):
        generalized_blocks(5, [1])  # needs two signs
    with pytest.raises(FormatError):
        generalized_blocks(5, [1, 2])
