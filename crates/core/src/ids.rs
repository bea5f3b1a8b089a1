//! Identifiers for the entities of the CA-action model.
//!
//! The resolution algorithm of §3.3 requires that "each thread \[has\] a unique
//! identifier and all threads are ordered"; the thread with the biggest
//! identifier among those in the exceptional state performs resolution.
//! [`ThreadId`] therefore carries a total order. Actions, roles and network
//! partitions get their own newtypes so the distinct id spaces cannot be
//! confused ([C-NEWTYPE]).

use std::fmt;

macro_rules! numeric_id {
    ($(#[$meta:meta])* $name:ident, $prefix:literal) => {
        $(#[$meta])*
        #[derive(
            Debug, Default, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash,
        )]
        pub struct $name(u32);

        impl $name {
            /// The text [`Display`](fmt::Display) prints before the raw
            /// index.
            pub const PREFIX: &'static str = $prefix;

            /// Creates an id from its raw index.
            #[must_use]
            pub const fn new(raw: u32) -> Self {
                $name(raw)
            }

            /// The raw index behind this id.
            #[must_use]
            pub const fn as_u32(self) -> u32 {
                self.0
            }

            /// The raw index as a `usize`, convenient for table lookups.
            #[must_use]
            pub const fn index(self) -> usize {
                self.0 as usize
            }
        }

        impl fmt::Display for $name {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                write!(f, "{}{}", Self::PREFIX, self.0)
            }
        }

        impl From<u32> for $name {
            fn from(raw: u32) -> Self {
                $name(raw)
            }
        }

        impl From<$name> for u32 {
            fn from(id: $name) -> u32 {
                id.0
            }
        }
    };
}

numeric_id!(
    /// Identifier of an execution thread (a participant), totally ordered.
    ///
    /// The order is load-bearing: when several participants are in the
    /// exceptional state, the one with the *largest* `ThreadId` resolves the
    /// concurrently raised exceptions (§3.3.2).
    ///
    /// # Examples
    ///
    /// ```
    /// use caa_core::ids::ThreadId;
    ///
    /// let resolver = [ThreadId::new(0), ThreadId::new(2), ThreadId::new(1)]
    ///     .into_iter()
    ///     .max()
    ///     .unwrap();
    /// assert_eq!(resolver, ThreadId::new(2));
    /// ```
    ThreadId,
    "T"
);

numeric_id!(
    /// Identifier of a network partition (a node in the distributed system).
    ///
    /// In the paper's Ada 95 prototype, "each participating thread is located
    /// in its own node (or partition)" (§5.1); the runtime preserves that
    /// mapping by default but permits co-located threads.
    PartitionId,
    "node"
);

numeric_id!(
    /// Index of a role within a CA action definition.
    ///
    /// Roles are the named slots of an action interface; a group of threads
    /// performs an action by binding one thread per role (§3.1).
    RoleId,
    "role"
);

/// Identifier of one *instance* of a CA action.
///
/// Nested action instances receive fresh ids; the nesting relationship is
/// tracked by the runtime's action stack (the paper's `SA` stack), not by the
/// id itself. Ids carry the nesting `depth` so that a participant can decide
/// whether a message concerns its active action or an enclosing one without a
/// directory lookup.
///
/// # Examples
///
/// ```
/// use caa_core::ids::ActionId;
///
/// let outer = ActionId::top_level(7);
/// let inner = ActionId::nested(8, &outer);
/// assert!(inner.depth() > outer.depth());
/// assert_ne!(inner, outer);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct ActionId {
    serial: u64,
    depth: u32,
}

impl ActionId {
    /// Creates the id of a top-level (outermost) action instance.
    #[must_use]
    pub const fn top_level(serial: u64) -> Self {
        ActionId { serial, depth: 0 }
    }

    /// Creates the id of an action instance nested directly inside `parent`.
    #[must_use]
    pub const fn nested(serial: u64, parent: &ActionId) -> Self {
        ActionId {
            serial,
            depth: parent.depth + 1,
        }
    }

    /// Creates an action id at an explicit nesting depth. Runtimes that
    /// encode definition/instance information in `serial` use this to mint
    /// ids without holding the parent id.
    #[must_use]
    pub const fn with_depth(serial: u64, depth: u32) -> Self {
        ActionId { serial, depth }
    }

    /// The globally unique serial number of this instance.
    #[must_use]
    pub const fn serial(self) -> u64 {
        self.serial
    }

    /// Nesting depth: 0 for a top-level action, parent depth + 1 otherwise.
    #[must_use]
    pub const fn depth(self) -> u32 {
        self.depth
    }
}

impl fmt::Display for ActionId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "A{}(d{})", self.serial, self.depth)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn thread_ids_are_totally_ordered() {
        let mut ids = vec![ThreadId::new(5), ThreadId::new(1), ThreadId::new(3)];
        ids.sort();
        assert_eq!(
            ids,
            vec![ThreadId::new(1), ThreadId::new(3), ThreadId::new(5)]
        );
    }

    #[test]
    fn display_formats() {
        assert_eq!(ThreadId::new(2).to_string(), "T2");
        assert_eq!(PartitionId::new(0).to_string(), "node0");
        assert_eq!(RoleId::new(1).to_string(), "role1");
        assert_eq!(ActionId::top_level(3).to_string(), "A3(d0)");
    }

    #[test]
    fn conversions_roundtrip() {
        let t = ThreadId::from(9u32);
        assert_eq!(u32::from(t), 9);
        assert_eq!(t.index(), 9);
    }

    #[test]
    fn nested_action_ids_track_depth() {
        let outer = ActionId::top_level(1);
        let mid = ActionId::nested(2, &outer);
        let inner = ActionId::nested(3, &mid);
        assert_eq!(outer.depth(), 0);
        assert_eq!(mid.depth(), 1);
        assert_eq!(inner.depth(), 2);
        assert_eq!(inner.serial(), 3);
    }
}
