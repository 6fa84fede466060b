"""WAN replication: multi-way master/slave across sites (Figure 4).

"Replicating data asynchronously between sites ... usually involves both
data partitioning and multi-way master/slave replication (i.e., each site
is master for its local geographical data)."

Each :class:`Site` runs its own middleware cluster and *owns* a set of
region values; updates for a region are routed (over simulated WAN
latency, in the timed benchmarks) to the owning site and shipped
asynchronously to every other site.  Site disasters hand ownership to a
surviving site; the unshipped tail is the lost-transaction window — the
disaster-recovery consistency the paper says customers accept.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Sequence

from ..sqlengine.executor import Result
from .analysis import analyze_cached
from .errors import MiddlewareError, ReplicaUnavailable
from .keyplan import compile_where_plan, literal_value
from .middleware import ReplicationMiddleware
from ..sqlengine import ast_nodes as ast


class Site:
    """One geographic site: a middleware cluster owning some regions."""

    def __init__(self, name: str, middleware: ReplicationMiddleware,
                 regions: Sequence[str]):
        self.name = name
        self.middleware = middleware
        self.regions = {r.lower() for r in regions}
        self.up = True
        # per-remote-site shipping cursor: last local seq shipped there
        self.shipped_to: Dict[str, int] = {}

    def ship_cursor(self, other: str, seq: int) -> None:
        """Move the shipping cursor for site ``other``.  The cursor is
        also a named checkpoint of this site's recovery log: what has
        not been shipped yet must not be purged."""
        self.shipped_to[other] = seq
        self.middleware.recovery_log.checkpoint(f"wan:{other}", seq=seq)

    def __repr__(self) -> str:
        state = "up" if self.up else "DOWN"
        return f"Site({self.name!r}, {state}, regions={sorted(self.regions)})"


class WanSystem:
    """The federation of sites."""

    def __init__(self, sites: Sequence[Site], region_column: str = "region"):
        if not sites:
            raise ValueError("need at least one site")
        self.sites: List[Site] = list(sites)
        self.region_column = region_column.lower()
        for site in self.sites:
            # Sites are assumed synchronized at federation time: only
            # updates committed *after* the system is wired ship across
            # (schema rollout is an administrative operation, not WAN
            # replication traffic).
            baseline = site.middleware.recovery_log.head_seq
            for other in self.sites:
                if other.name != site.name \
                        and other.name not in site.shipped_to:
                    site.ship_cursor(other.name, baseline)
        self.stats = {"local_writes": 0, "remote_writes": 0,
                      "shipped_entries": 0, "lost_on_disaster": 0}

    # -- lookup -------------------------------------------------------------

    def site_by_name(self, name: str) -> Site:
        for site in self.sites:
            if site.name == name:
                return site
        raise MiddlewareError(f"no site {name!r}")

    def owner_of(self, region: str) -> Site:
        for site in self.sites:
            if site.up and region.lower() in site.regions:
                return site
        raise ReplicaUnavailable(f"no live site owns region {region!r}")

    def live_sites(self) -> List[Site]:
        return [s for s in self.sites if s.up]

    # -- client API ------------------------------------------------------------

    def connect(self, home_site: str, user: str = "admin",
                password: str = "", database: Optional[str] = None) -> "WanSession":
        return WanSession(self, self.site_by_name(home_site), user,
                          password, database)

    # -- asynchronous shipping -----------------------------------------------------

    def ship_updates(self) -> int:
        """One round of asynchronous cross-site propagation: every site
        ships its recovery-log tail to every other live site.  Returns the
        number of entries shipped."""
        shipped = sum(self._ship(site, other)
                      for site in self.live_sites()
                      for other in self.live_sites())
        self.stats["shipped_entries"] += shipped
        return shipped

    @staticmethod
    def _ship(site: Site, other: Site) -> int:
        """Replay ``site``'s log tail past its cursor for ``other`` on
        every online replica there, moving the cursor entry by entry.
        Returns the number of entries shipped."""
        if other is site:
            return 0
        log = site.middleware.recovery_log
        shipped = 0
        for entry in log.entries_since(site.shipped_to.get(other.name, 0)):
            for replica in other.middleware.online_replicas():
                log.replay_entry(replica.engine, entry)
            site.ship_cursor(other.name, entry.seq)
            shipped += 1
        return shipped

    def unshipped_backlog(self, site_name: str) -> int:
        """Entries this site has committed but not yet shipped everywhere —
        the disaster-loss window."""
        site = self.site_by_name(site_name)
        head = site.middleware.recovery_log.head_seq
        if not site.shipped_to:
            return 0
        return max(head - cursor for cursor in site.shipped_to.values())

    # -- disasters -----------------------------------------------------------------

    def site_disaster(self, name: str,
                      new_owner: Optional[str] = None) -> Dict[str, Any]:
        """An entire site goes dark (earthquake/flood, section 2.2).

        Ownership of its regions moves to ``new_owner`` (default: first
        surviving site).  Updates committed at the dead site but never
        shipped are lost — the report quantifies the window.
        """
        site = self.site_by_name(name)
        lost = self.unshipped_backlog(name)
        site.up = False
        survivors = self.live_sites()
        if not survivors:
            raise MiddlewareError("all sites are down")
        target = (self.site_by_name(new_owner) if new_owner
                  else survivors[0])
        target.regions |= site.regions
        self.stats["lost_on_disaster"] += lost
        return {
            "site": name, "lost_updates": lost,
            "new_owner": target.name,
            "regions_moved": sorted(site.regions),
        }

    def site_recovered(self, name: str,
                       reclaim_regions: bool = False) -> int:
        """Bring a site back: replay everything it missed from the other
        sites' logs.  Region ownership stays with the takeover site unless
        ``reclaim_regions``."""
        site = self.site_by_name(name)
        site.up = True
        replayed = sum(self._ship(other, site)
                       for other in self.live_sites())
        if reclaim_regions:
            for other in self.sites:
                if other.name != name:
                    other.regions -= site.regions
        return replayed


class WanSession:
    """A client attached to a home site; updates hop to the owning site."""

    def __init__(self, system: WanSystem, home: Site, user: str,
                 password: str, database: Optional[str]):
        self.system = system
        self.home = home
        self._sessions: Dict[str, Any] = {}
        self.user = user
        self.password = password
        self.database = database

    def _session_for(self, site: Site):
        session = self._sessions.get(site.name)
        if session is None or session.closed:
            session = site.middleware.connect(
                self.user, self.password, self.database)
            self._sessions[site.name] = session
        return session

    def execute(self, sql: str, params: Optional[List[Any]] = None) -> Result:
        # text is resolved once, at the home site's statement cache; each
        # statement then travels as a tree with its own text
        units = self.home.middleware.statements.script(sql, params)
        result = Result()
        for statement, text, values in units:
            result = self._execute_one(statement, text, list(values))
        return result

    def _execute_one(self, statement, sql_text: str,
                     params: List[Any]) -> Result:
        info = analyze_cached(statement)
        system = self.system
        if info.is_read_only:
            # reads are always site-local (geo latency is the whole point)
            if not self.home.up:
                raise ReplicaUnavailable(f"home site {self.home.name} is down")
            targets = [self.home]
        else:
            region = self._region_of(statement, params)
            if region is None:
                # DDL and region-less writes go everywhere (rare, admin
                # path)
                targets = system.live_sites()
            else:
                owner = system.owner_of(region)
                if owner.name == self.home.name:
                    system.stats["local_writes"] += 1
                else:
                    system.stats["remote_writes"] += 1
                targets = [owner]
        result = Result()
        for site in targets:
            result = self._session_for(site).execute_one_parsed(
                statement, sql_text, params)
        return result

    def _region_of(self, statement, params: List[Any]) -> Optional[str]:
        column = self.system.region_column
        if isinstance(statement, ast.InsertStatement) \
                and statement.columns and statement.rows:
            lowered = [c.lower() for c in statement.columns]
            if column in lowered:
                value = literal_value(
                    statement.rows[0][lowered.index(column)], params)
                return str(value) if value is not None else None
            return None
        plan = compile_where_plan(statement, None, column)
        values = plan(params) if plan is not None else None
        if values:
            return str(values[0])
        return None

    def close(self) -> None:
        for session in self._sessions.values():
            session.close()
        self._sessions.clear()

    def __enter__(self) -> "WanSession":
        return self

    def __exit__(self, *exc) -> None:
        self.close()
