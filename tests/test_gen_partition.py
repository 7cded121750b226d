"""Mesh-block IDs: the GODIVA keys of a partitioned mesh (section 4.2)."""

from repro.gen.partition import block_id_string


def test_block_id_format():
    assert block_id_string(7) == "block_0007"
    assert block_id_string(119) == "block_0119"
    assert len(block_id_string(0)) == 10
