//! The four system models and the protocol-transfer relation between them.

use std::fmt;

/// One of the paper's four asynchronous models.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub enum Model {
    /// Message passing with crash failures (paper §3.1).
    MpCrash,
    /// Message passing with Byzantine failures (paper §3.2).
    MpByzantine,
    /// Shared memory with crash failures (paper §4.1).
    SmCrash,
    /// Shared memory with Byzantine failures (paper §4.2).
    SmByzantine,
}

kset_core::unit_enum!(Model {
    MpCrash,
    MpByzantine,
    SmCrash,
    SmByzantine
});

impl Model {
    /// All four models, in the paper's order of treatment.
    pub const ALL: [Model; 4] = [
        Model::MpCrash,
        Model::MpByzantine,
        Model::SmCrash,
        Model::SmByzantine,
    ];

    /// The paper's shorthand (MP/CR, MP/Byz, SM/CR, SM/Byz).
    pub fn shorthand(self) -> &'static str {
        match self {
            Model::MpCrash => "MP/CR",
            Model::MpByzantine => "MP/Byz",
            Model::SmCrash => "SM/CR",
            Model::SmByzantine => "SM/Byz",
        }
    }

    /// The figure of the paper whose atlas this model corresponds to.
    pub fn figure(self) -> u8 {
        match self {
            Model::MpCrash => 2,
            Model::MpByzantine => 4,
            Model::SmCrash => 5,
            Model::SmByzantine => 6,
        }
    }

    /// True if the failure mode is Byzantine.
    pub fn is_byzantine(self) -> bool {
        matches!(self, Model::MpByzantine | Model::SmByzantine)
    }

    /// True if communication is by shared memory.
    pub fn is_shared_memory(self) -> bool {
        matches!(self, Model::SmCrash | Model::SmByzantine)
    }

    /// Whether a protocol correct in `self` is also correct in `target`.
    ///
    /// Two mechanisms compose:
    ///
    /// * **SIMULATION** (paper §4): any message-passing protocol becomes a
    ///   shared-memory protocol for the same failure mode, by replacing each
    ///   send with a fresh SWMR register write and each receive with reads.
    /// * **Failure containment**: crash behaviour is a special case of
    ///   Byzantine behaviour, so a protocol whose properties hold under
    ///   Byzantine fault plans keeps them under crash plans.
    ///
    /// Conversely, an impossibility in `target` transfers back to `self`
    /// whenever `self.transfers_to(target)` — if `SC` were solvable in
    /// `self`, the transfer would solve it in `target`.
    pub fn transfers_to(self, target: Model) -> bool {
        let comm_ok = !self.is_shared_memory() || target.is_shared_memory();
        let fail_ok = self.is_byzantine() || !target.is_byzantine();
        comm_ok && fail_ok
    }
}

impl fmt::Display for Model {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.shorthand())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use Model::*;

    #[test]
    fn transfer_relation_matches_the_paper() {
        // MP/Byz protocols work everywhere.
        for m in Model::ALL {
            assert!(MpByzantine.transfers_to(m), "MP/Byz -> {m}");
        }
        // SM/CR protocols work only in SM/CR.
        for m in Model::ALL {
            assert_eq!(SmCrash.transfers_to(m), m == SmCrash, "SM/CR -> {m}");
        }
        // MP/CR -> {MP/CR, SM/CR} (SIMULATION, but not to Byzantine modes).
        assert!(MpCrash.transfers_to(MpCrash));
        assert!(MpCrash.transfers_to(SmCrash));
        assert!(!MpCrash.transfers_to(MpByzantine));
        assert!(!MpCrash.transfers_to(SmByzantine));
        // SM/Byz -> {SM/Byz, SM/CR}.
        assert!(SmByzantine.transfers_to(SmCrash));
        assert!(SmByzantine.transfers_to(SmByzantine));
        assert!(!SmByzantine.transfers_to(MpCrash));
        assert!(!SmByzantine.transfers_to(MpByzantine));
    }

    #[test]
    fn transfer_is_reflexive_and_transitive() {
        for a in Model::ALL {
            assert!(a.transfers_to(a));
            for b in Model::ALL {
                for c in Model::ALL {
                    if a.transfers_to(b) && b.transfers_to(c) {
                        assert!(a.transfers_to(c), "{a} -> {b} -> {c}");
                    }
                }
            }
        }
    }

    #[test]
    fn figures_and_shorthands() {
        assert_eq!(MpCrash.figure(), 2);
        assert_eq!(MpByzantine.figure(), 4);
        assert_eq!(SmCrash.figure(), 5);
        assert_eq!(SmByzantine.figure(), 6);
        assert_eq!(MpByzantine.to_string(), "MP/Byz");
    }
}
