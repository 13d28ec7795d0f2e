//! Per-tenant accounts: fair-share weights and spending budgets.
//!
//! Tenants are created implicitly on first submission with default policy
//! (weight 1.0, no budget). Operators register explicit policies through
//! [`TenantDirectory::set_policy`]; the query server consults the directory
//! at admission — a tenant over its budget is rejected before any work (or
//! billing) happens, and weights feed the fair queue.

use std::collections::BTreeMap;
use std::sync::Mutex;

/// Per-tenant knobs.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TenantPolicy {
    /// Fair-share weight (clamped by the fair queue to its bounds).
    pub weight: f64,
    /// Hard spending cap in dollars of billed revenue; `None` = unlimited.
    /// Enforced at admission against the tenant's [`SpendBook`]: committed
    /// bills plus the reservations of its queries in flight.
    pub budget_dollars: Option<f64>,
}

impl Default for TenantPolicy {
    fn default() -> Self {
        TenantPolicy {
            weight: 1.0,
            budget_dollars: None,
        }
    }
}

/// Registry of tenant policies; tenants absent from the map use
/// [`TenantPolicy::default`]. Internally synchronized.
#[derive(Debug, Default)]
pub struct TenantDirectory {
    policies: Mutex<BTreeMap<String, TenantPolicy>>,
}

impl TenantDirectory {
    pub fn new() -> TenantDirectory {
        TenantDirectory::default()
    }

    pub fn set_policy(&self, tenant: &str, policy: TenantPolicy) {
        self.policies
            .lock()
            .unwrap()
            .insert(tenant.to_string(), policy);
    }

    pub fn policy(&self, tenant: &str) -> TenantPolicy {
        self.policies
            .lock()
            .unwrap()
            .get(tenant)
            .copied()
            .unwrap_or_default()
    }

    /// Tenants with explicit policies, name-ordered.
    pub fn registered(&self) -> Vec<(String, TenantPolicy)> {
        self.policies
            .lock()
            .unwrap()
            .iter()
            .map(|(t, p)| (t.clone(), *p))
            .collect()
    }
}

/// Per-tenant spend accounting for budget admission: dollars already
/// committed (billed by finished queries) plus dollars reserved by queries
/// still in flight. The budget gate is one atomic check-and-reserve under
/// the book's lock, so concurrent submissions from a capped tenant cannot
/// all read "under budget" before any of them bills — each admitted query
/// holds its modelled bill as a reservation until its terminal state
/// reconciles it against the real bill. This also replaces the O(entries)
/// ledger rescan the old budget check paid on every submission.
#[derive(Debug, Default)]
pub struct SpendBook {
    inner: Mutex<BTreeMap<String, TenantSpend>>,
}

#[derive(Debug, Default, Clone, Copy)]
struct TenantSpend {
    committed: f64,
    reserved: f64,
}

impl SpendBook {
    pub fn new() -> SpendBook {
        SpendBook::default()
    }

    /// Atomically check `budget` and reserve `estimate` dollars for an
    /// in-flight query. Returns `false` (and reserves nothing) when
    /// committed-plus-reserved spend has already reached the budget. A
    /// tenant is admitted while strictly under its cap, so the overrun is
    /// bounded by one query's estimation error rather than by how many
    /// submissions race the gate.
    pub fn try_reserve(&self, tenant: &str, estimate: f64, budget: f64) -> bool {
        let mut inner = self.inner.lock().unwrap();
        let s = inner.entry(tenant.to_string()).or_default();
        if s.committed + s.reserved >= budget {
            return false;
        }
        s.reserved += estimate.max(0.0);
        true
    }

    /// Settle a query at its terminal state: release the admission-time
    /// `estimate` and commit the `billed` dollars (zero for failed or
    /// rejected queries, which never bill).
    pub fn settle(&self, tenant: &str, estimate: f64, billed: f64) {
        let mut inner = self.inner.lock().unwrap();
        let s = inner.entry(tenant.to_string()).or_default();
        s.reserved = (s.reserved - estimate.max(0.0)).max(0.0);
        s.committed += billed;
    }

    /// Committed (billed) spend for `tenant`.
    pub fn committed(&self, tenant: &str) -> f64 {
        self.inner
            .lock()
            .unwrap()
            .get(tenant)
            .map(|s| s.committed)
            .unwrap_or(0.0)
    }

    /// Outstanding in-flight reservations for `tenant`.
    pub fn reserved(&self, tenant: &str) -> f64 {
        self.inner
            .lock()
            .unwrap()
            .get(tenant)
            .map(|s| s.reserved)
            .unwrap_or(0.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unknown_tenants_get_defaults() {
        let dir = TenantDirectory::new();
        let p = dir.policy("nobody");
        assert_eq!(p.weight, 1.0);
        assert_eq!(p.budget_dollars, None);
    }

    #[test]
    fn policies_round_trip() {
        let dir = TenantDirectory::new();
        dir.set_policy(
            "acme",
            TenantPolicy {
                weight: 2.5,
                budget_dollars: Some(10.0),
            },
        );
        assert_eq!(dir.policy("acme").budget_dollars, Some(10.0));
        assert_eq!(dir.registered().len(), 1);
    }

    #[test]
    fn reservations_gate_the_budget_atomically() {
        let book = SpendBook::new();
        // Strictly under the cap: admit and hold the estimate.
        assert!(book.try_reserve("t", 0.6, 1.0));
        assert!(book.try_reserve("t", 0.6, 1.0));
        // Committed + reserved has reached the cap: refuse, even though
        // nothing has billed yet — this is the check-then-act window the
        // reservation closes.
        assert!(!book.try_reserve("t", 0.6, 1.0));
        // One query finishes cheaper than its estimate; headroom returns.
        book.settle("t", 0.6, 0.1);
        assert!((book.committed("t") - 0.1).abs() < 1e-12);
        assert!((book.reserved("t") - 0.6).abs() < 1e-12);
        assert!(book.try_reserve("t", 0.6, 1.0));
        // A failed query commits nothing but still releases its hold.
        book.settle("t", 0.6, 0.0);
        book.settle("t", 0.6, 0.3);
        assert!((book.reserved("t")).abs() < 1e-12);
        assert!((book.committed("t") - 0.4).abs() < 1e-12);
        // A zero budget refuses the first query outright.
        assert!(!book.try_reserve("broke", 0.0, 0.0));
    }
}
