//! Property tests for the fabric primitives: the [`SpanContext`] wire
//! decoder is total over hostile bytes, the [`Payload`] copy-on-write
//! handle never lets a writer disturb other handles, and
//! [`SortedVecMap`] is observationally equivalent to `BTreeMap` under
//! arbitrary operation sequences.

use std::collections::BTreeMap;

use odp_fabric::{Payload, SortedVecMap, SpanContext};
use odp_net::error::NetError;
use odp_net::wire::{WireCodec, WireReader};
use proptest::prelude::*;

/// One step of the map model test.
#[derive(Debug, Clone)]
enum MapOp {
    Insert(u8, u16),
    Remove(u8),
    GetOrDefault(u8, u16),
    RetainEven,
}

fn arb_map_op() -> impl Strategy<Value = MapOp> {
    (0u8..4, any::<u8>(), any::<u16>()).prop_map(|(tag, k, v)| match tag {
        0 => MapOp::Insert(k, v),
        1 => MapOp::Remove(k),
        2 => MapOp::GetOrDefault(k, v),
        _ => MapOp::RetainEven,
    })
}

proptest! {
    /// The span decoder is total over arbitrary bytes, and anything it
    /// accepts re-encodes to exactly the consumed prefix (the codec has
    /// one canonical form).
    #[test]
    fn hostile_bytes_never_panic_and_accepts_are_canonical(
        bytes in prop::collection::vec(any::<u8>(), 0..64),
    ) {
        let mut r = WireReader::new(&bytes);
        match SpanContext::decode(&mut r) {
            Ok(span) => {
                let used = bytes.len() - r.remaining();
                let mut re = Vec::new();
                span.encode(&mut re);
                prop_assert_eq!(re.as_slice(), &bytes[..used]);
            }
            Err(NetError::Truncated { needed, have }) => {
                prop_assert!(have < needed);
                prop_assert_eq!(have, r.remaining());
            }
            Err(NetError::BadTag { what, tag }) => {
                prop_assert_eq!(what, "Option");
                prop_assert_eq!(tag, u32::from(bytes[16]));
                prop_assert!(tag > 1);
            }
            Err(other) => prop_assert!(false, "unexpected error {}", other),
        }
    }

    /// Cloning a payload shares the allocation; writing through one
    /// handle detaches it and never disturbs the others, regardless of
    /// the contents or the edit.
    #[test]
    fn payload_cow_isolates_writers(
        bytes in prop::collection::vec(any::<u8>(), 0..48),
        extra in any::<u8>(),
    ) {
        let original = Payload::from_vec(bytes.clone());
        let reader = original.clone();
        let mut writer = original.clone();
        prop_assert!(original.ptr_eq(&reader) && original.ptr_eq(&writer));
        prop_assert_eq!(original.handle_count(), 3);

        writer.to_mut().push(extra);
        prop_assert!(!original.ptr_eq(&writer), "write must detach");
        prop_assert!(original.ptr_eq(&reader), "readers keep sharing");
        prop_assert_eq!(original.as_slice(), bytes.as_slice());
        prop_assert_eq!(reader.as_slice(), bytes.as_slice());
        let mut expect = bytes.clone();
        expect.push(extra);
        prop_assert_eq!(writer.as_slice(), expect.as_slice());
        prop_assert_eq!(writer.into_vec(), expect);
    }

    /// Payload equality, ordering and hashing follow the bytes, not the
    /// allocation lineage.
    #[test]
    fn payload_compares_by_content(
        a in prop::collection::vec(any::<u8>(), 0..32),
        b in prop::collection::vec(any::<u8>(), 0..32),
    ) {
        let pa = Payload::from_slice(&a);
        let pb = Payload::from_slice(&b);
        prop_assert_eq!(pa == pb, a == b);
        prop_assert_eq!(pa.cmp(&pb), a.cmp(&b));
        prop_assert_eq!(pa.clone(), pa.clone());
    }

    /// A `SortedVecMap` driven by an arbitrary operation sequence holds
    /// exactly what a `BTreeMap` holds, in the same iteration order.
    #[test]
    fn sorted_vec_map_matches_btreemap(ops in prop::collection::vec(arb_map_op(), 0..64)) {
        let mut subject: SortedVecMap<u8, u16> = SortedVecMap::new();
        let mut model: BTreeMap<u8, u16> = BTreeMap::new();
        for op in ops {
            match op {
                MapOp::Insert(k, v) => {
                    prop_assert_eq!(subject.insert(k, v), model.insert(k, v));
                }
                MapOp::Remove(k) => {
                    prop_assert_eq!(subject.remove(&k), model.remove(&k));
                }
                MapOp::GetOrDefault(k, v) => {
                    let slot = subject.get_mut_or_default(k);
                    *slot = slot.wrapping_add(v);
                    let m = model.entry(k).or_default();
                    *m = m.wrapping_add(v);
                }
                MapOp::RetainEven => {
                    subject.retain(|k, _| k % 2 == 0);
                    model.retain(|k, _| k % 2 == 0);
                }
            }
            prop_assert_eq!(subject.len(), model.len());
        }
        let got: Vec<(u8, u16)> = subject.iter().map(|(&k, &v)| (k, v)).collect();
        let want: Vec<(u8, u16)> = model.iter().map(|(&k, &v)| (k, v)).collect();
        prop_assert_eq!(got, want);
        prop_assert_eq!(
            subject.first_key_value().map(|(&k, &v)| (k, v)),
            model.first_key_value().map(|(&k, &v)| (k, v))
        );
        for k in 0..=u8::MAX {
            prop_assert_eq!(subject.get(&k), model.get(&k));
            prop_assert_eq!(subject.contains_key(&k), model.contains_key(&k));
        }
    }
}
