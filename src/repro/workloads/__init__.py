"""Workload generators and arrival processes for the benchmark suite.

The paper argues (§5.3) that existing cloud-application benchmarks miss
data-management requirements — multi-item transactions, data invariants,
exactly-once semantics — and that request-arrival modeling must respect the
open/closed distinction (Schroeder et al.).  This package supplies:

- :mod:`repro.workloads.arrivals` — open (Poisson) and closed
  (think-time) arrival processes;
- :mod:`repro.workloads.ycsb` — YCSB-style KV mixes with zipfian skew;
- :mod:`repro.workloads.transfers` — the bank-transfer microbenchmark with
  a conservation invariant (the anomaly detector's favourite prey);
- :mod:`repro.workloads.tpcc` — TPC-C-lite (NewOrder/Payment/OrderStatus)
  with consistency conditions;
- :mod:`repro.workloads.marketplace` — an Online-Marketplace-style
  checkout (cart → stock → payment) with oversell/double-charge invariants;
- :mod:`repro.workloads.hotel` — a DeathStarBench-style hotel reservation
  workload (searches and reserves; the app and its capacity invariants
  are :mod:`repro.apps.hotel`).
"""

from repro.workloads.arrivals import (
    ClosedLoop,
    OpenLoop,
)
from repro.workloads.transfers import TransferWorkload
from repro.workloads.tpcc import TpccLite
from repro.workloads.marketplace import MarketplaceWorkload
from repro.workloads.hotel import HotelWorkload
from repro.workloads.ycsb import YcsbWorkload, ZipfianGenerator

__all__ = [
    "ClosedLoop",
    "HotelWorkload",
    "MarketplaceWorkload",
    "OpenLoop",
    "TpccLite",
    "TransferWorkload",
    "YcsbWorkload",
    "ZipfianGenerator",
]
