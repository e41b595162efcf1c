"""Cache substrate: the flat cache image, way-partitioned banks, the NUCA L2."""

from repro.cache.aggregation import (
    SCHEMES,
    AddressHashAggregation,
    AggregatedCache,
    AggregationStats,
    CascadeAggregation,
    IdealLRUAggregation,
    ParallelAggregation,
    make_aggregation,
)
from repro.cache.bank import BankStats, CacheBank, CacheImage, Eviction
from repro.cache.nuca import AccessResult, NucaL2, NucaStats
from repro.cache.partition_map import (
    BankAllocation,
    CorePartition,
    PartitionMap,
    equal_partition_map,
)

__all__ = [
    "SCHEMES",
    "AccessResult",
    "AddressHashAggregation",
    "AggregatedCache",
    "AggregationStats",
    "BankAllocation",
    "BankStats",
    "CacheBank",
    "CacheImage",
    "CascadeAggregation",
    "CorePartition",
    "Eviction",
    "IdealLRUAggregation",
    "NucaL2",
    "NucaStats",
    "ParallelAggregation",
    "PartitionMap",
    "equal_partition_map",
    "make_aggregation",
]
