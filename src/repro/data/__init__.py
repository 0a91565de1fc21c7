"""Data model: schemas, records, tables, candidate pairs, datasets, and IO."""

from repro.data.dataset import DatasetStatistics, EMDataset
from repro.data.pair import MATCH, NON_MATCH, CandidatePair, PairSet
from repro.data.record import Record, Table
from repro.data.schema import Attribute, AttributeType, Schema, bibliographic_schema, product_schema
from repro.data.splits import DatasetSplit, SplitRatios, stratified_split

__all__ = [
    "Attribute",
    "AttributeType",
    "CandidatePair",
    "DatasetSplit",
    "DatasetStatistics",
    "EMDataset",
    "MATCH",
    "NON_MATCH",
    "PairSet",
    "Record",
    "Schema",
    "SplitRatios",
    "Table",
    "bibliographic_schema",
    "product_schema",
    "stratified_split",
]
