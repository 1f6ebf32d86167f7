//! Strongly-typed identifiers for WFST entities.
//!
//! The accelerator hardware manipulates raw 32-bit indices; these newtypes
//! keep the software model honest about which index space a value belongs to
//! (states vs. arcs vs. labels) while compiling down to the same `u32`.

use std::fmt;

macro_rules! id_type {
    ($(#[$doc:meta])* $name:ident, $prefix:literal) => {
        $(#[$doc])*
        #[derive(
            Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default,
        )]
        #[repr(transparent)]
        pub struct $name(pub u32);

        impl $name {
            /// Returns the raw index as a `usize` suitable for array indexing.
            #[inline]
            pub fn index(self) -> usize {
                self.0 as usize
            }

            /// Creates an id from a `usize` index.
            ///
            /// # Panics
            ///
            /// Panics if `index` does not fit in 32 bits, which matches the
            /// 32-bit index fields of the hardware memory layout.
            #[inline]
            pub fn from_index(index: usize) -> Self {
                assert!(index <= u32::MAX as usize, "index exceeds 32-bit id space");
                Self(index as u32)
            }
        }

        impl fmt::Debug for $name {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                write!(f, concat!($prefix, "{}"), self.0)
            }
        }

        impl fmt::Display for $name {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                write!(f, "{}", self.0)
            }
        }

        impl From<u32> for $name {
            fn from(v: u32) -> Self {
                Self(v)
            }
        }

        impl From<$name> for u32 {
            fn from(v: $name) -> u32 {
                v.0
            }
        }
    };
}

id_type!(
    /// Index of a static WFST state (a node of the recognition network).
    ///
    /// The paper distinguishes static *states* from dynamic *tokens*; a
    /// token is an active state created during the search and lives in
    /// `asr-decoder` / `asr-accel`.
    StateId,
    "s"
);

id_type!(
    /// Index into the flat arc array. All outgoing arcs of a state occupy
    /// consecutive indices, non-epsilon arcs first.
    ArcId,
    "a"
);

id_type!(
    /// Input label of an arc: a (context-dependent) phoneme identifier.
    ///
    /// `PhoneId::EPSILON` (index 0) marks epsilon arcs, which consume no
    /// frame of speech. Kaldi's English WFST has ~11.5% epsilon arcs.
    PhoneId,
    "p"
);

id_type!(
    /// Output label of an arc: a word identifier, or `WordId::NONE` when the
    /// transition emits no word (the dash in Figure 2a).
    WordId,
    "w"
);

impl PhoneId {
    /// The reserved epsilon input label: traversing such an arc does not
    /// consume an acoustic frame.
    pub const EPSILON: PhoneId = PhoneId(0);

    /// Returns `true` for the epsilon label.
    #[inline]
    pub fn is_epsilon(self) -> bool {
        self == Self::EPSILON
    }
}

impl WordId {
    /// The reserved "no output word" label.
    pub const NONE: WordId = WordId(0);

    /// Returns `true` if the label emits no word.
    #[inline]
    pub fn is_none(self) -> bool {
        self == Self::NONE
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ids_roundtrip_through_usize() {
        let s = StateId::from_index(42);
        assert_eq!(s.index(), 42);
        assert_eq!(u32::from(s), 42);
        assert_eq!(StateId::from(42u32), s);
    }

    #[test]
    fn epsilon_and_none_are_index_zero() {
        assert!(PhoneId::EPSILON.is_epsilon());
        assert!(!PhoneId(3).is_epsilon());
        assert!(WordId::NONE.is_none());
        assert!(!WordId(1).is_none());
    }

    #[test]
    fn debug_formats_are_prefixed_and_nonempty() {
        assert_eq!(format!("{:?}", StateId(7)), "s7");
        assert_eq!(format!("{:?}", ArcId(9)), "a9");
        assert_eq!(format!("{:?}", PhoneId(0)), "p0");
        assert_eq!(format!("{:?}", WordId(1)), "w1");
    }

    #[test]
    fn display_is_bare_number() {
        assert_eq!(StateId(5).to_string(), "5");
    }

    #[test]
    #[should_panic(expected = "32-bit")]
    fn from_index_rejects_overflow() {
        let _ = StateId::from_index(u32::MAX as usize + 1);
    }

    #[test]
    fn ordering_follows_raw_index() {
        assert!(StateId(1) < StateId(2));
        assert!(ArcId(0) < ArcId(u32::MAX));
    }
}
