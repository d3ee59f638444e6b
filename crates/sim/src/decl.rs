//! Declaration macros: each type's name list is written once.
//!
//! Each macro takes an ordinary item — with its `///` docs, derives and
//! field types — emits it unchanged, and generates the per-variant or
//! per-field plumbing from that one declaration:
//!
//! * [`event_enum!`](crate::event_enum) — the [`SimEvent`] table: kind
//!   names and indices, the provenance root set, JSON payload fields and
//!   the wire codec;
//! * [`indexed_enum!`](crate::indexed_enum) — a fieldless enum with a
//!   stable lower-snake name per variant, its dense index and wire codec;
//! * [`wire_record!`](crate::wire_record) — a struct whose wire codec
//!   writes and reads every field in declaration order; the `counters`
//!   form also lists a flat `u64` counter struct by name.
//!
//! The generated codecs call [`Wire`](crate::wire::Wire) on every field,
//! and `<u64 as Wire>::encode` is `WireWriter::u64` (and so on), so a
//! declaration produces the same tokens a hand-written codec would.
//!
//! [`SimEvent`]: crate::obs::SimEvent

/// Declares the decision-event enum and generates its table.
///
/// Every variant has named fields. A variant that may be emitted without
/// a cause link carries `#[root = "why"]` after its docs; every other
/// kind must be caused. Generated on the enum: `KIND_COUNT`, `KINDS`,
/// `ROOT_KINDS`, `kind_index`, `cause_required`, `write_json_fields`
/// (fields in declaration order, each through
/// [`JsonValue`](crate::obs::JsonValue)) and a [`Wire`](crate::wire::Wire)
/// codec (the kind index, then each field).
#[macro_export]
macro_rules! event_enum {
    (@root) => { false };
    (@root $why:literal) => { true };
    (@name $variant:ident $why:literal) => { stringify!($variant) };
    (
        $(#[$meta:meta])*
        $vis:vis enum $name:ident {
            $(
                $(#[doc = $doc:literal])*
                $(#[root = $why:literal])?
                $variant:ident {
                    $( $(#[doc = $fdoc:literal])* $field:ident : $ty:ty ),* $(,)?
                }
            ),+ $(,)?
        }
    ) => {
        $(#[$meta])*
        $vis enum $name {
            $(
                $(#[doc = $doc])*
                $variant { $( $(#[doc = $fdoc])* $field: $ty ),* },
            )+
        }

        impl $name {
            /// Number of event kinds (array size for exact per-kind counters).
            pub const KIND_COUNT: usize = [$(stringify!($variant)),+].len();

            /// All kind names, in [`Self::kind_index`] order.
            pub const KINDS: [&'static str; Self::KIND_COUNT] = [$(stringify!($variant)),+];

            /// Kind names that may legitimately appear as provenance-DAG
            /// roots (no cause link): the variants marked `#[root]`.
            /// Everything else must be caused — enforced by
            /// `validate_events` on every captured run.
            pub const ROOT_KINDS: &'static [&'static str] =
                &[$($($crate::event_enum!(@name $variant $why),)?)+];

            /// Dense index of this event's kind, for fixed-size counter arrays.
            pub fn kind_index(&self) -> usize {
                enum Kind { $($variant),+ }
                match self {
                    $(Self::$variant { .. } => Kind::$variant as usize,)+
                }
            }

            /// True when the provenance contract requires every emission
            /// of this kind to carry a cause link: every kind outside
            /// [`Self::ROOT_KINDS`].
            pub fn cause_required(kind_index: usize) -> bool {
                const ROOT: [bool; $name::KIND_COUNT] =
                    [$($crate::event_enum!(@root $($why)?)),+];
                !matches!(ROOT.get(kind_index), Some(true))
            }

            /// Appends the per-variant payload fields (each preceded by
            /// a comma, no braces) to `out` in one formatted write — the
            /// shared tail of [`Self::write_json`] and
            /// [`EventRecord::write_json`](crate::obs::EventRecord::write_json).
            pub fn write_json_fields(&self, out: &mut String) {
                use std::fmt::Write as _;
                match *self {
                    $(Self::$variant { $($field),* } => {
                        let _ = write!(
                            out,
                            concat!($(",\"", stringify!($field), "\":{}"),*),
                            $($crate::obs::Json(&$field)),*
                        );
                    })+
                }
            }
        }

        impl $crate::wire::Wire for $name {
            fn encode(&self, w: &mut $crate::wire::WireWriter) {
                w.u64(self.kind_index() as u64);
                match self {
                    $(Self::$variant { $($field),* } => {
                        $($crate::wire::Wire::encode($field, w);)*
                    })+
                }
            }

            // One index constant per kind, named after it, so the
            // dispatch is a `match` over constant patterns.
            #[allow(non_upper_case_globals)]
            fn decode(
                r: &mut $crate::wire::WireReader<'_>,
            ) -> Result<Self, $crate::wire::WireError> {
                enum Kind { $($variant),+ }
                $(const $variant: u64 = Kind::$variant as u64;)+
                Ok(match r.u64()? {
                    $($variant => Self::$variant {
                        $($field: <$ty as $crate::wire::Wire>::decode(r)?),*
                    },)+
                    _ => return r.err(concat!(stringify!($name), " kind index")),
                })
            }
        }
    };
}

/// Declares a fieldless enum whose variants carry stable lower-snake
/// names: `Variant = "name"`. Generated: `COUNT`, `ALL` (declaration
/// order), `index`, `as_str`, a [`JsonValue`](crate::obs::JsonValue)
/// rendering as the quoted name, and a [`Wire`](crate::wire::Wire)
/// codec carrying the index.
#[macro_export]
macro_rules! indexed_enum {
    (
        $(#[$meta:meta])*
        $vis:vis enum $name:ident {
            $(
                $(#[doc = $doc:literal])*
                $variant:ident = $str:literal
            ),+ $(,)?
        }
    ) => {
        $(#[$meta])*
        $vis enum $name {
            $($(#[doc = $doc])* $variant,)+
        }

        impl $name {
            /// Number of variants (array size for per-variant tables).
            pub const COUNT: usize = [$($str),+].len();

            /// Every variant, in [`Self::index`] order.
            pub const ALL: [$name; Self::COUNT] = [$($name::$variant),+];

            /// Dense index of this variant (declaration order).
            pub fn index(self) -> usize {
                self as usize
            }

            /// Stable lower-snake name used in JSON and report output.
            pub fn as_str(self) -> &'static str {
                match self {
                    $($name::$variant => $str,)+
                }
            }
        }

        impl $crate::obs::JsonValue for $name {
            fn fmt_json(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
                write!(f, "\"{}\"", self.as_str())
            }
        }

        impl $crate::wire::Wire for $name {
            fn encode(&self, w: &mut $crate::wire::WireWriter) {
                w.u64(self.index() as u64);
            }

            fn decode(
                r: &mut $crate::wire::WireReader<'_>,
            ) -> Result<Self, $crate::wire::WireError> {
                match usize::try_from(r.u64()?) {
                    Ok(i) if i < Self::COUNT => Ok(Self::ALL[i]),
                    _ => r.err(concat!(stringify!($name), " index")),
                }
            }
        }
    };
}

/// Declares a struct with a [`Wire`](crate::wire::Wire) codec that
/// writes and reads every field in declaration order. The encoder
/// destructures exhaustively, so the codec can never miss a field.
///
/// `wire_record! { counters … }` declares a flat counter struct (every
/// field `u64`) and also generates `COUNT` and `entries()`, the
/// `(name, value)` list of its counters.
#[macro_export]
macro_rules! wire_record {
    (
        counters
        $(#[$meta:meta])*
        $vis:vis struct $name:ident {
            $( $(#[$fmeta:meta])* $fvis:vis $field:ident : u64 ),* $(,)?
        }
    ) => {
        $crate::wire_record! {
            $(#[$meta])*
            $vis struct $name { $($(#[$fmeta])* $fvis $field: u64),* }
        }

        impl $name {
            /// Number of counters (see [`Self::entries`]).
            pub const COUNT: usize = [$(stringify!($field)),*].len();

            /// `(name, value)` pairs for every counter, in declaration
            /// order — the single source of truth for rendering (prom
            /// exposition, report tables) and for audit reconciliation.
            pub fn entries(&self) -> [(&'static str, u64); Self::COUNT] {
                [$((stringify!($field), self.$field)),*]
            }
        }
    };
    (
        $(#[$meta:meta])*
        $vis:vis struct $name:ident {
            $( $(#[$fmeta:meta])* $fvis:vis $field:ident : $ty:ty ),* $(,)?
        }
    ) => {
        $(#[$meta])*
        $vis struct $name {
            $($(#[$fmeta])* $fvis $field: $ty,)*
        }

        impl $crate::wire::Wire for $name {
            fn encode(&self, w: &mut $crate::wire::WireWriter) {
                let $name { $($field),* } = self;
                $($crate::wire::Wire::encode($field, w);)*
            }

            fn decode(
                r: &mut $crate::wire::WireReader<'_>,
            ) -> Result<Self, $crate::wire::WireError> {
                Ok($name { $($field: <$ty as $crate::wire::Wire>::decode(r)?),* })
            }
        }
    };
}
