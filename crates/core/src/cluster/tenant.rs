//! Multi-tenant admission control for the sharded engine.
//!
//! Tenants are registered up front with a priority; every job is
//! submitted on behalf of a tenant.  Admission is checked at submit time
//! (a job naming an unregistered tenant gets an immediate terminal
//! `Rejected` outcome — never a silent drop), and under degraded
//! capacity the engine sheds queued jobs of the lowest-priority tenants
//! first.

/// Engine-assigned tenant identifier (registration order).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct TenantId(pub u64);

/// A tenant's contract with the engine.
#[derive(Debug, Clone, PartialEq)]
pub struct TenantSpec {
    /// Human-readable name (reports and traces).
    pub name: String,
    /// Scheduling priority: higher values are more important and are
    /// shed *last* under degraded capacity.
    pub priority: u8,
}

impl TenantSpec {
    /// A tenant with the given name and priority.
    pub fn new(name: &str, priority: u8) -> Self {
        TenantSpec {
            name: name.to_string(),
            priority,
        }
    }
}

/// The registered tenants, indexed by [`TenantId`].
#[derive(Debug, Default)]
pub struct TenantTable {
    entries: Vec<TenantSpec>,
}

impl TenantTable {
    /// An empty table.
    pub fn new() -> Self {
        TenantTable::default()
    }

    /// Register a tenant; the returned id is its handle for submissions.
    pub fn register(&mut self, spec: TenantSpec) -> TenantId {
        self.entries.push(spec);
        TenantId(self.entries.len() as u64 - 1)
    }

    /// The tenant's spec, if registered.
    pub fn spec(&self, id: TenantId) -> Option<&TenantSpec> {
        self.entries.get(id.0 as usize)
    }

    /// Admit a job for the tenant.  Returns an error string (for the
    /// terminal `Rejected` outcome) if the tenant is unknown.
    pub fn admit(&self, id: TenantId) -> Result<(), String> {
        match self.spec(id) {
            Some(_) => Ok(()),
            None => Err(format!("unknown tenant {:?}", id)),
        }
    }

    /// The tenant's priority (0 if unknown; unknown tenants are rejected
    /// at submit so this never drives a real scheduling decision).
    pub fn priority(&self, id: TenantId) -> u8 {
        self.spec(id).map_or(0, |s| s.priority)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unknown_tenants_are_rejected() {
        let t = TenantTable::new();
        assert!(t.admit(TenantId(9)).unwrap_err().contains("unknown"));
        assert_eq!(t.priority(TenantId(9)), 0);
    }

    #[test]
    fn ids_are_registration_order() {
        let mut t = TenantTable::new();
        let a = t.register(TenantSpec::new("a", 3));
        let b = t.register(TenantSpec::new("b", 1));
        assert_eq!((a, b), (TenantId(0), TenantId(1)));
        assert_eq!(t.priority(a), 3);
        assert!(t.admit(b).is_ok());
        assert_eq!(t.spec(b).unwrap().name, "b");
    }
}
