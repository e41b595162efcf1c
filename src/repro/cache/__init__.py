"""Cache substrate: LRU way-partitioned sets, banks, the NUCA L2."""

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
from repro.cache.bank import BankStats, CacheBank
from repro.cache.cacheset import CacheSet, Eviction
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
    "CacheSet",
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
