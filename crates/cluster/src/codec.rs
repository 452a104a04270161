//! Where the wire codec meets the transport's buffers.
//!
//! The codec itself — the [`Wire`] trait, the primitive and container
//! layouts, and the `wire_struct!` / `wire_enum!` tables every payload type
//! declares its layout with — is [`p2mdie_logic::wire`], below every type
//! that travels. It reads and writes std buffers. Messages move between
//! ranks as cheaply-cloneable [`Bytes`] (one encoding, many sends), and
//! these two functions are the only place the two meet. The byte counts of
//! what they produce feed the per-link traffic statistics that regenerate
//! the paper's Table 4 and the bandwidth term of the virtual-time model.

use bytes::Bytes;
pub use p2mdie_logic::wire::{DecodeError, Wire};

/// Encodes a value into a fresh byte buffer.
pub fn to_bytes<T: Wire>(value: &T) -> Bytes {
    let mut out = Vec::new();
    value.encode(&mut out);
    Bytes::from(out)
}

/// Decodes a value from a byte buffer, requiring full consumption.
pub fn from_bytes<T: Wire>(bytes: Bytes) -> Result<T, DecodeError> {
    p2mdie_logic::wire::decode_exact(bytes.as_slice())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip<T: Wire + PartialEq + std::fmt::Debug>(v: T) {
        let b = to_bytes(&v);
        let back: T = from_bytes(b).unwrap();
        assert_eq!(back, v);
    }

    #[test]
    fn primitive_roundtrips() {
        roundtrip(0u8);
        roundtrip(0xBEEFu16);
        roundtrip(42u32);
        roundtrip(u64::MAX);
        roundtrip(-7i64);
        roundtrip(1.5f64);
        roundtrip(true);
        roundtrip(12345usize);
        roundtrip("héllo".to_owned());
    }

    #[test]
    fn container_roundtrips() {
        roundtrip(vec![1u32, 2, 3]);
        roundtrip(Vec::<u32>::new());
        roundtrip(Some(9u64));
        roundtrip(Option::<u64>::None);
        roundtrip((1u32, "x".to_owned()));
        roundtrip((1u32, 2u64, vec![false, true]));
    }

    #[test]
    fn truncated_input_errors() {
        let b = to_bytes(&42u64);
        assert!(from_bytes::<u64>(b.slice(..4)).is_err());
    }

    #[test]
    fn trailing_bytes_rejected() {
        let buf = to_bytes(&(42u32, 0u8));
        assert_eq!(
            from_bytes::<u32>(buf).unwrap_err().context,
            "trailing bytes"
        );
    }

    #[test]
    fn hostile_vec_length_rejected() {
        // Claim 2^31 elements with a 1-byte body.
        let buf = to_bytes(&(1u32 << 31, 0u8));
        assert!(from_bytes::<Vec<u32>>(buf).is_err());
    }

    #[test]
    fn bad_bool_and_option_tags() {
        assert!(from_bytes::<bool>(to_bytes(&7u8)).is_err());
        assert!(from_bytes::<Option<u8>>(to_bytes(&9u8)).is_err());
    }

    #[test]
    fn byte_counts_are_exact() {
        assert_eq!(to_bytes(&7u16).len(), 2);
        assert_eq!(to_bytes(&7u32).len(), 4);
        assert_eq!(to_bytes(&vec![1u32, 2]).len(), 4 + 8);
        assert_eq!(to_bytes(&"ab".to_owned()).len(), 4 + 2);
    }
}
