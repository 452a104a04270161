//! The byte-accurate wire codec: one layout per type, stated once.
//!
//! Every value that crosses a rank boundary — protocol messages, socket
//! frames, the compiled-KB snapshot — is written and read through [`Wire`].
//! The byte counts feed the per-link traffic statistics that regenerate the
//! paper's Table 4 (communication in MBytes) and the bandwidth term of the
//! virtual-time model, so a layout is part of a reproduced number: it is
//! declared in exactly one place, next to the type it belongs to, and
//! `tests/golden/wire_layout.txt` pins the bytes.
//!
//! The trait lives here because this is the lowest crate every payload type
//! can see (the metric snapshots and trace records of `p2mdie-obs`, which
//! sits below, get their impls at the bottom of this file). It works over std buffers only
//! — `Vec<u8>` out, `&mut &[u8]` in — so no crate needs a buffer dependency
//! to state a layout; `p2mdie_cluster::codec` is where these meet the
//! transport's shared `Bytes`.
//!
//! # Layout rules
//!
//! * integers and floats are fixed-width **little-endian**; `usize` travels
//!   as a `u64`, `bool` as one byte that must be 0 or 1;
//! * a sequence (`String`, `Vec<T>`, `Box<[T]>`, `Arc<[T]>`) is a `u32`
//!   count followed by its elements, with no padding;
//! * `Option<T>` is a one-byte tag (0 = `None`, 1 = `Some`) and then `T`;
//!   `Box<T>` and tuples add nothing to their contents;
//! * a struct is its fields in declaration-of-layout order
//!   ([`wire_struct!`](crate::wire_struct)); an enum is a **one-byte tag**
//!   and then the variant's fields ([`wire_enum!`](crate::wire_enum)). Tags
//!   are never renumbered and a retired tag is never reused;
//! * nothing is self-describing beyond counts and tags, and nothing is
//!   compressed.
//!
//! Decoding is bounds-checked by construction: every read is a checked
//! split off the front of the input, a count larger than the bytes left is
//! refused before anything is reserved, the one reservation
//! ([`decode_seq`]'s, behind [`Vec<T>`]) is capped by what the remaining
//! bytes could pay for, and the one recursive type ([`crate::term::Term`])
//! refuses to nest deeper than [`crate::term::MAX_TERM_DEPTH`], so the
//! input picks neither the memory nor the stack a decode takes. Malformed
//! input is a [`DecodeError`], never a panic.
//!
//! # What may be written by hand
//!
//! A table row per field is the default. An `impl Wire` is written out only
//! where the bytes are *not* the fields in order: a field that is
//! deliberately not shipped (`BottomClause::steps`, rank-local accounting),
//! the snapshot's `u32` / `TermId` runs, which keep a bulk decoder because
//! they are most of a snapshot's bytes, and `Term`, whose decoder counts
//! its nesting depth. The one layout a table
//! cannot express with element impls alone — an envelope frame's payload,
//! which runs to the end of the frame without a count of its own — is the
//! `..rest` marker of [`wire_enum!`](crate::wire_enum).

use p2mdie_obs::{Event, MetricEntry, MetricValue, MetricsSnapshot, Phase, Value};
use std::borrow::Cow;
use std::fmt;
use std::mem::size_of;

/// Decoding failure (truncated or malformed payload).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DecodeError {
    /// What was being decoded.
    pub context: &'static str,
}

impl DecodeError {
    /// Creates an error tagged with the decoding context.
    pub fn new(context: &'static str) -> Self {
        DecodeError { context }
    }
}

impl fmt::Display for DecodeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "decode error: truncated or malformed {}", self.context)
    }
}

impl std::error::Error for DecodeError {}

/// Types that can be serialized to and from the wire.
pub trait Wire: Sized {
    /// Appends the encoding of `self` to `out`.
    fn encode(&self, out: &mut Vec<u8>);
    /// Decodes a value from the front of `inp`, advancing it past the bytes
    /// consumed.
    fn decode(inp: &mut &[u8]) -> Result<Self, DecodeError>;
}

/// Decodes a value that must be all of `inp`: anything left over is an
/// error, so a frame cannot smuggle bytes past its message.
pub fn decode_exact<T: Wire>(mut inp: &[u8]) -> Result<T, DecodeError> {
    let v = T::decode(&mut inp)?;
    if !inp.is_empty() {
        return Err(DecodeError::new("trailing bytes"));
    }
    Ok(v)
}

/// Splits the next `n` bytes off the front of `inp`, or fails with
/// `context` when fewer are left.
pub fn take<'a>(
    inp: &mut &'a [u8],
    n: usize,
    context: &'static str,
) -> Result<&'a [u8], DecodeError> {
    if inp.len() < n {
        return Err(DecodeError::new(context));
    }
    let (head, rest) = inp.split_at(n);
    *inp = rest;
    Ok(head)
}

macro_rules! wire_le {
    ($($ty:ident),*) => {$(
        impl Wire for $ty {
            fn encode(&self, out: &mut Vec<u8>) {
                out.extend_from_slice(&self.to_le_bytes());
            }
            fn decode(inp: &mut &[u8]) -> Result<Self, DecodeError> {
                let (raw, rest) = inp
                    .split_first_chunk()
                    .ok_or(DecodeError::new(stringify!($ty)))?;
                *inp = rest;
                Ok($ty::from_le_bytes(*raw))
            }
        }
    )*};
}
wire_le!(u8, u16, u32, u64, i64, f64);

impl Wire for usize {
    fn encode(&self, out: &mut Vec<u8>) {
        (*self as u64).encode(out);
    }
    fn decode(inp: &mut &[u8]) -> Result<Self, DecodeError> {
        Ok(u64::decode(inp)? as usize)
    }
}

impl Wire for bool {
    fn encode(&self, out: &mut Vec<u8>) {
        out.push(u8::from(*self));
    }
    fn decode(inp: &mut &[u8]) -> Result<Self, DecodeError> {
        match u8::decode(inp)? {
            0 => Ok(false),
            1 => Ok(true),
            _ => Err(DecodeError::new("bool")),
        }
    }
}

impl Wire for String {
    fn encode(&self, out: &mut Vec<u8>) {
        (self.len() as u32).encode(out);
        out.extend_from_slice(self.as_bytes());
    }
    fn decode(inp: &mut &[u8]) -> Result<Self, DecodeError> {
        let n = u32::decode(inp)? as usize;
        let raw = take(inp, n, "string body")?;
        String::from_utf8(raw.to_vec()).map_err(|_| DecodeError::new("string utf8"))
    }
}

/// A string's layout; it decodes owned.
impl Wire for Cow<'static, str> {
    fn encode(&self, out: &mut Vec<u8>) {
        (self.len() as u32).encode(out);
        out.extend_from_slice(self.as_bytes());
    }
    fn decode(inp: &mut &[u8]) -> Result<Self, DecodeError> {
        Ok(Cow::Owned(String::decode(inp)?))
    }
}

fn encode_slice<T: Wire>(items: &[T], out: &mut Vec<u8>) {
    (items.len() as u32).encode(out);
    for item in items {
        item.encode(out);
    }
}

/// Decodes a sequence — a `u32` count, then that many elements — reading
/// each element with `elem`. This is [`Vec<T>`]'s decoder; a type whose
/// elements need more than the input to decode (a nesting depth, for
/// [`crate::term::Term`]) calls it with its own `elem`.
pub fn decode_seq<T>(
    inp: &mut &[u8],
    mut elem: impl FnMut(&mut &[u8]) -> Result<T, DecodeError>,
) -> Result<Vec<T>, DecodeError> {
    let n = u32::decode(inp)? as usize;
    // Every element takes at least one byte, so a count beyond the bytes
    // left is a lie. An honest-looking count still reserves no more memory
    // than the input itself occupies: elements are often smaller on the wire
    // than in memory, and the vector grows past the cap if they really all
    // arrive.
    if n > inp.len() {
        return Err(DecodeError::new("vec length"));
    }
    let mut out = Vec::with_capacity(n.min(inp.len() / size_of::<T>().max(1)));
    for _ in 0..n {
        out.push(elem(inp)?);
    }
    Ok(out)
}

impl<T: Wire> Wire for Vec<T> {
    fn encode(&self, out: &mut Vec<u8>) {
        encode_slice(self, out);
    }
    fn decode(inp: &mut &[u8]) -> Result<Self, DecodeError> {
        decode_seq(inp, T::decode)
    }
}

impl<T: Wire> Wire for Box<[T]> {
    fn encode(&self, out: &mut Vec<u8>) {
        encode_slice(self, out);
    }
    fn decode(inp: &mut &[u8]) -> Result<Self, DecodeError> {
        Ok(Vec::decode(inp)?.into_boxed_slice())
    }
}

impl<T: Wire> Wire for std::sync::Arc<[T]> {
    fn encode(&self, out: &mut Vec<u8>) {
        encode_slice(self, out);
    }
    fn decode(inp: &mut &[u8]) -> Result<Self, DecodeError> {
        Ok(Vec::decode(inp)?.into())
    }
}

impl<T: Wire> Wire for Option<T> {
    fn encode(&self, out: &mut Vec<u8>) {
        match self {
            None => out.push(0),
            Some(v) => {
                out.push(1);
                v.encode(out);
            }
        }
    }
    fn decode(inp: &mut &[u8]) -> Result<Self, DecodeError> {
        match u8::decode(inp)? {
            0 => Ok(None),
            1 => Ok(Some(T::decode(inp)?)),
            _ => Err(DecodeError::new("option tag")),
        }
    }
}

impl<T: Wire> Wire for Box<T> {
    fn encode(&self, out: &mut Vec<u8>) {
        (**self).encode(out);
    }
    fn decode(inp: &mut &[u8]) -> Result<Self, DecodeError> {
        Ok(Box::new(T::decode(inp)?))
    }
}

impl<A: Wire, B: Wire> Wire for (A, B) {
    fn encode(&self, out: &mut Vec<u8>) {
        self.0.encode(out);
        self.1.encode(out);
    }
    fn decode(inp: &mut &[u8]) -> Result<Self, DecodeError> {
        Ok((A::decode(inp)?, B::decode(inp)?))
    }
}

impl<A: Wire, B: Wire, C: Wire> Wire for (A, B, C) {
    fn encode(&self, out: &mut Vec<u8>) {
        self.0.encode(out);
        self.1.encode(out);
        self.2.encode(out);
    }
    fn decode(inp: &mut &[u8]) -> Result<Self, DecodeError> {
        Ok((A::decode(inp)?, B::decode(inp)?, C::decode(inp)?))
    }
}

/// Declares a struct's wire layout: its fields, in wire order. Each field
/// is encoded and decoded through its own [`Wire`] impl, so the field types
/// drive the bytes; a tuple struct names its fields `0`, `1`, ….
///
/// ```
/// use p2mdie_logic::wire::Wire;
///
/// #[derive(Debug, PartialEq)]
/// struct Span {
///     rank: u8,
///     steps: Vec<u32>,
/// }
/// p2mdie_logic::wire_struct!(Span { rank, steps });
///
/// let mut bytes = Vec::new();
/// Span { rank: 2, steps: vec![7] }.encode(&mut bytes);
/// assert_eq!(bytes, [2, 1, 0, 0, 0, 7, 0, 0, 0]);
/// assert_eq!(Span::decode(&mut &bytes[..]).unwrap().steps, [7]);
/// ```
#[macro_export]
macro_rules! wire_struct {
    ($ty:ident { $($field:tt),* $(,)? }) => {
        impl $crate::wire::Wire for $ty {
            fn encode(&self, out: &mut Vec<u8>) {
                $( $crate::wire::Wire::encode(&self.$field, out); )*
            }
            fn decode(inp: &mut &[u8]) -> Result<Self, $crate::wire::DecodeError> {
                Ok($ty { $( $field: $crate::wire::Wire::decode(inp)? ),* })
            }
        }
    };
}

/// Declares an enum's wire layout as a table, one row per variant: the
/// one-byte tag, the variant, and its fields in wire order. An unknown tag
/// decodes to a [`DecodeError`] carrying the given context; a variant
/// without a row does not compile.
///
/// A struct variant's last field may be written `..rest`: a `Vec<u8>` that
/// runs to the end of the input with no count of its own (for a value that
/// is already length-delimited from outside, as a socket frame is).
///
/// ```
/// use p2mdie_logic::wire::Wire;
///
/// #[derive(Debug, PartialEq)]
/// enum Cmd {
///     Stop,
///     Seek { to: u32 },
///     Say(String),
/// }
/// p2mdie_logic::wire_enum!(Cmd, "cmd tag" {
///     0 => Stop,
///     1 => Seek { to },
///     2 => Say(text),
/// });
///
/// let mut bytes = Vec::new();
/// Cmd::Seek { to: 5 }.encode(&mut bytes);
/// assert_eq!(bytes, [1, 5, 0, 0, 0]);
/// assert_eq!(Cmd::decode(&mut &bytes[..]), Ok(Cmd::Seek { to: 5 }));
/// assert_eq!(Cmd::decode(&mut &[9u8][..]).unwrap_err().context, "cmd tag");
/// ```
#[macro_export]
macro_rules! wire_enum {
    ($ty:ident, $ctx:literal { $(
        $tag:literal => $variant:ident
            $( { $($field:ident),* $(, ..$rest:ident)? } )?
            $( ( $($item:ident),* ) )?
    ),* $(,)? }) => {
        impl $crate::wire::Wire for $ty {
            fn encode(&self, out: &mut Vec<u8>) {
                match self { $(
                    $ty::$variant $( { $($field,)* $($rest)? } )? $( ( $($item),* ) )? => {
                        out.push($tag);
                        $(
                            $( $crate::wire::Wire::encode($field, out); )*
                            $( out.extend_from_slice($rest); )?
                        )?
                        $( $( $crate::wire::Wire::encode($item, out); )* )?
                    }
                )* }
            }
            fn decode(inp: &mut &[u8]) -> Result<Self, $crate::wire::DecodeError> {
                Ok(match <u8 as $crate::wire::Wire>::decode(inp)? {
                    $( $tag => $ty::$variant
                        $( {
                            $( $field: $crate::wire::Wire::decode(inp)?, )*
                            $( $rest: ::std::mem::take(inp).to_vec(), )?
                        } )?
                        $( ( $( $crate::wire_enum!(@decode $item inp) ),* ) )?,
                    )*
                    _ => return Err($crate::wire::DecodeError::new($ctx)),
                })
            }
        }
    };
    (@decode $item:ident $inp:ident) => { $crate::wire::Wire::decode($inp)? };
}

// `p2mdie-obs` sits below this crate, so its wire-carried types (the
// payload of the protocol's `MetricsReport`, and the trace records a worker
// process's shutdown report carries home) are declared here.
wire_struct!(MetricsSnapshot { entries });
wire_struct!(MetricEntry { name, value });
wire_enum!(MetricValue, "metric value tag" {
    0 => Counter(n),
    1 => Gauge(v),
    2 => Histogram { count, sum, buckets },
});
wire_struct!(Event {
    rank,
    seq,
    vt,
    wall_ns,
    phase,
    name,
    args,
});
wire_enum!(Phase, "trace phase tag" {
    0 => Begin,
    1 => End,
    2 => Instant,
});
wire_enum!(Value, "trace value tag" {
    0 => U64(n),
    1 => I64(n),
    2 => F64(x),
    3 => Bool(b),
    4 => Str(s),
});

#[cfg(test)]
mod tests {
    use super::*;

    fn bytes_of<T: Wire>(v: &T) -> Vec<u8> {
        let mut out = Vec::new();
        v.encode(&mut out);
        out
    }

    /// Round-trips `v`, checks the input is consumed exactly, and that
    /// every strict prefix of the encoding is refused.
    fn roundtrip<T: Wire + PartialEq + fmt::Debug>(v: T) {
        let bytes = bytes_of(&v);
        assert_eq!(decode_exact::<T>(&bytes).unwrap(), v);
        for cut in 0..bytes.len() {
            assert!(
                T::decode(&mut &bytes[..cut]).is_err(),
                "{v:?}: prefix of {cut} bytes decoded"
            );
        }
    }

    #[derive(Debug, PartialEq)]
    struct Pair(u16, bool);
    wire_struct!(Pair { 0, 1 });

    #[derive(Debug, PartialEq)]
    struct Named {
        id: u64,
        tags: Vec<Pair>,
        note: Option<String>,
    }
    wire_struct!(Named { id, tags, note });

    #[derive(Debug, PartialEq)]
    enum Shape {
        Unit,
        Fields { a: u32, b: Box<Named> },
        Tuple(i64, f64),
        Raw { from: u8, tail: Vec<u8> },
    }
    wire_enum!(Shape, "shape tag" {
        0 => Unit,
        1 => Fields { a, b },
        7 => Tuple(x, y),
        9 => Raw { from, ..tail },
    });

    fn named() -> Named {
        Named {
            id: 0x0102_0304_0506_0708,
            tags: vec![Pair(7, true), Pair(0xBEEF, false)],
            note: Some("héllo".to_owned()),
        }
    }

    #[test]
    fn primitives_and_containers_roundtrip_and_reject_prefixes() {
        roundtrip(0xABu8);
        roundtrip(0xBEEFu16);
        roundtrip(42u32);
        roundtrip(u64::MAX);
        roundtrip(-7i64);
        roundtrip(1.5f64);
        roundtrip(true);
        roundtrip(12345usize);
        roundtrip("héllo".to_owned());
        roundtrip(vec![1u32, 2, 3]);
        roundtrip(Some(9u64));
        roundtrip(Option::<u64>::None);
        roundtrip(Box::new(5u16));
        roundtrip(vec![1u8, 2].into_boxed_slice());
        roundtrip((1u32, "x".to_owned()));
        roundtrip((1u32, 2u64, vec![false, true]));
    }

    #[test]
    fn tables_roundtrip_and_reject_prefixes() {
        roundtrip(Pair(3, true));
        roundtrip(named());
        roundtrip(Shape::Unit);
        roundtrip(Shape::Fields {
            a: 9,
            b: Box::new(named()),
        });
        roundtrip(Shape::Tuple(-1, 0.25));
        assert_eq!(
            Shape::decode(&mut &[3u8][..]).unwrap_err().context,
            "shape tag"
        );
    }

    /// A trace record travels exactly: every field, every value kind, the
    /// order of its args, a borrowed name arriving owned.
    #[test]
    fn trace_records_roundtrip_and_reject_prefixes() {
        let arg = |k: &'static str, v| (Cow::Borrowed(k), v);
        let event = Event {
            rank: 2,
            seq: 9,
            vt: 1.25,
            wall_ns: 777,
            phase: Phase::Instant,
            name: Cow::Borrowed("warn"),
            args: vec![
                arg("z", Value::U64(u64::MAX)),
                arg("a", Value::I64(-3)),
                arg("vt", Value::F64(0.1)),
                arg("ok", Value::Bool(true)),
                arg("msg", Value::Str(Cow::Owned("a\"b".to_owned()))),
            ],
        };
        roundtrip(event);
        for phase in [Phase::Begin, Phase::End, Phase::Instant] {
            roundtrip(phase);
        }
        assert_eq!(
            Value::decode(&mut &[5u8][..]).unwrap_err().context,
            "trace value tag"
        );
        assert_eq!(
            Phase::decode(&mut &[3u8][..]).unwrap_err().context,
            "trace phase tag"
        );
    }

    #[test]
    fn table_layouts_are_fields_in_order() {
        assert_eq!(bytes_of(&Pair(0x0102, true)), [2, 1, 1]);
        assert_eq!(bytes_of(&Shape::Unit), [0]);
        assert_eq!(
            bytes_of(&Shape::Tuple(1, 0.0)),
            [[7u8, 1].as_slice(), &[0; 15]].concat()
        );
        // Same bytes as the sequence of its parts, nothing added.
        let parts = [
            bytes_of(&1u8),
            bytes_of(&9u32),
            bytes_of(&named().id),
            bytes_of(&named().tags),
            bytes_of(&named().note),
        ];
        let fields = Shape::Fields {
            a: 9,
            b: Box::new(named()),
        };
        assert_eq!(bytes_of(&fields), parts.concat());
        assert_eq!(bytes_of(&vec![1u32, 2]).len(), 4 + 8);
        assert_eq!(bytes_of(&"ab".to_owned()).len(), 4 + 2);
        assert_eq!(bytes_of(&7usize).len(), 8);
    }

    /// A `..rest` field takes whatever follows, uncounted: an empty tail is
    /// a valid value, so prefixes cut inside the tail still decode.
    #[test]
    fn rest_field_runs_to_the_end_of_the_input() {
        let v = Shape::Raw {
            from: 4,
            tail: b"abc".to_vec(),
        };
        assert_eq!(bytes_of(&v), [9, 4, b'a', b'b', b'c']);
        let mut inp = &bytes_of(&v)[..];
        assert_eq!(Shape::decode(&mut inp).unwrap(), v);
        assert!(inp.is_empty());
        assert!(Shape::decode(&mut &[9u8][..]).is_err());
    }

    #[test]
    fn decode_advances_past_exactly_what_it_read() {
        let mut bytes = bytes_of(&42u32);
        bytes.push(0xEE);
        let mut inp = &bytes[..];
        assert_eq!(u32::decode(&mut inp).unwrap(), 42);
        assert_eq!(inp, [0xEE]);
        assert_eq!(
            decode_exact::<u32>(&bytes).unwrap_err().context,
            "trailing bytes"
        );
        assert!(u64::decode(&mut &bytes_of(&42u64)[..4]).is_err());
    }

    #[test]
    fn bad_bool_option_and_utf8_are_rejected() {
        assert_eq!(bool::decode(&mut &[7u8][..]).unwrap_err().context, "bool");
        assert!(Option::<u8>::decode(&mut &[9u8, 0][..]).is_err());
        assert!(String::decode(&mut &[1u8, 0, 0, 0, 0xFF][..]).is_err());
    }

    /// A count is refused when it exceeds the bytes left, and a count that
    /// *equals* the bytes left over a multi-byte element — which passes
    /// that test — neither over-reserves nor decodes.
    #[test]
    fn hostile_vec_counts_are_rejected() {
        let mut raw = bytes_of(&(1u32 << 31));
        raw.push(0);
        assert_eq!(
            Vec::<u32>::decode(&mut &raw[..]).unwrap_err().context,
            "vec length"
        );

        let body = vec![0u8; 1 << 16];
        let raw = [bytes_of(&(body.len() as u32)), body].concat();
        assert!(Vec::<(u64, u64, u64)>::decode(&mut &raw[..]).is_err());
        // The same bytes are a valid vector of single-byte elements.
        assert_eq!(Vec::<u8>::decode(&mut &raw[..]).unwrap().len(), 1 << 16);
    }
}
