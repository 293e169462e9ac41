//! Strongly-typed identifiers for indoor entities.
//!
//! All identifiers are dense indices assigned by the [`crate::FloorPlanBuilder`]
//! in insertion order, so they double as `Vec` indices inside the
//! [`crate::FloorPlan`].

macro_rules! define_id {
    ($(#[$doc:meta])* $name:ident) => {
        $(#[$doc])*
        #[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
        // The derived `PartialOrd` calls `partial_cmp` on its integer field.
        #[allow(clippy::disallowed_methods)]
        pub struct $name(pub u32);

        impl $name {
            /// The identifier as a `usize` index.
            #[inline]
            pub fn index(self) -> usize {
                self.0 as usize
            }
        }

        impl From<u32> for $name {
            fn from(v: u32) -> Self {
                $name(v)
            }
        }

        impl std::fmt::Display for $name {
            fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
                write!(f, "{}{}", stringify!($name), self.0)
            }
        }
    };
}

define_id!(
    /// Identifier of a floor-plan cell (room or hallway section).
    CellId
);
define_id!(
    /// Identifier of a door connecting two cells.
    DoorId
);
define_id!(
    /// Identifier of a proximity-detection device.
    DeviceId
);
define_id!(
    /// Identifier of an indoor point of interest.
    PoiId
);

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ids_are_ordered_and_hashable() {
        use std::collections::HashSet;
        let a = CellId(1);
        let b = CellId(2);
        assert!(a < b);
        assert_eq!(a.index(), 1);
        let set: HashSet<CellId> = [a, b, CellId(1)].into_iter().collect();
        assert_eq!(set.len(), 2);
    }

    #[test]
    fn display_includes_type_name() {
        assert_eq!(DeviceId(7).to_string(), "DeviceId7");
        assert_eq!(PoiId::from(3).to_string(), "PoiId3");
    }
}
