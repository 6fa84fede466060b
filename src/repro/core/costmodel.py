"""Service-time cost model for simulated execution.

The paper's performance observations are about *shape* — sub-millisecond
OLTP queries suffer most from middleware latency (section 4.4.5), update
application saturates replicas (section 2.1), serial apply lags behind a
parallel master (section 2.2).  The cost model assigns each statement a
nominal service time so the discrete-event simulation reproduces those
shapes; absolute values default to figures typical of 2008-era OLTP
hardware and are fully configurable.
"""

from __future__ import annotations

from ..sqlengine import ast_nodes as ast
from .analysis import StatementInfo


class CostModel:
    """Nominal service times (seconds) for statement classes.

    Attributes:
        point_read: indexed single-row SELECT.
        scan_read: SELECT with joins/aggregates/subqueries.
        write: single INSERT/UPDATE/DELETE.
        commit_io: local commit (log force).
        middleware_overhead: per-statement middleware processing
            (parse + route) — the latency tax of section 4.4.5.
        interception_overhead: added per-statement by the chosen
            interception design (set by ``core.interception``).
        writeset_apply: applying one writeset row at a replica
            (cheaper than re-executing the statement).
        certification: certifier CPU per commit.
        certify_txn_cpu: incremental certifier CPU per *additional*
            transaction in a group-commit batch (the serial total-order
            point charges ``certification + certify_txn_cpu * (n-1)``
            for a batch of n instead of n full rounds).
        group_commit_txn_io: incremental log-force cost per additional
            transaction sharing one group-committed ``commit_io``.
        io_fraction: share of a write that is disk-bound (interacts with
            silent disk degradation, section 4.1.3).
    """

    def __init__(self,
                 point_read: float = 0.0008,
                 scan_read: float = 0.004,
                 write: float = 0.0012,
                 commit_io: float = 0.0015,
                 middleware_overhead: float = 0.0003,
                 interception_overhead: float = 0.0,
                 writeset_apply: float = 0.0006,
                 certification: float = 0.0002,
                 certify_txn_cpu: float = 0.00005,
                 group_commit_txn_io: float = 0.0002,
                 io_fraction: float = 0.5,
                 apply_io_fraction: float = 0.8):
        self.point_read = point_read
        self.scan_read = scan_read
        self.write = write
        self.commit_io = commit_io
        self.middleware_overhead = middleware_overhead
        self.interception_overhead = interception_overhead
        self.writeset_apply = writeset_apply
        self.certification = certification
        self.certify_txn_cpu = certify_txn_cpu
        self.group_commit_txn_io = group_commit_txn_io
        self.io_fraction = io_fraction
        # Writeset application is random-write dominated; a parallel apply
        # pipeline overlaps this IO, which is where its speedup comes from
        # (section 4.4.2's replay-parallelism discussion).
        self.apply_io_fraction = apply_io_fraction

    # -- per-statement estimates ------------------------------------------

    def statement_cost(self, info: StatementInfo) -> float:
        """Replica-side service time for one statement."""
        statement = info.statement
        if isinstance(statement, ast.SelectStatement):
            return self._select_cost(statement)
        if info.is_procedure_call:
            # procedures bundle several statements; charge a bundle
            return self.write * 3 + self.scan_read
        if info.is_ddl:
            return self.write * 2
        if info.is_write:
            return self.write
        return self.point_read

    def _select_cost(self, select: ast.SelectStatement) -> float:
        heavy = (
            isinstance(select.source, (ast.Join,))
            or select.group_by
            or select.having is not None
            or any(isinstance(expr, ast.FunctionCall)
                   for expr, _ in select.columns)
        )
        return self.scan_read if heavy else self.point_read

    def middleware_cost(self) -> float:
        return self.middleware_overhead + self.interception_overhead

    def apply_cost(self, writeset_size: int) -> float:
        """Applying a writeset of N row changes at a replica."""
        return self.writeset_apply * max(1, writeset_size)


def default_cost_model() -> CostModel:
    return CostModel()
