//! The benchmark's model of the store.
//!
//! There is one client, so the store must hold exactly what that
//! client wrote: every read must return the model's `(version, value)`,
//! every write must take a fresh version, every CAS on a version just
//! read must win, and a delete must find the key exactly when the model
//! holds it. After the run the whole store is compared with the model.

use bytes::Bytes;

/// What the model knows about one key.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Slot {
    /// Not stored.
    Absent,
    /// Stored at this version with this value.
    Present(u64, Vec<u8>),
    /// A write failed in transit, so it may or may not have landed. The
    /// next read of the key tells which, and the model adopts it.
    Unknown,
}

/// A broken expectation: the program returned something a correct
/// store could not have.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Mismatch(pub String);

impl std::fmt::Display for Mismatch {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.0)
    }
}

/// The model of keys `0..n`.
#[derive(Debug, Clone)]
pub struct Model {
    slots: Vec<Slot>,
}

fn show(hit: &Option<(u64, Vec<u8>)>) -> String {
    match hit {
        Some((v, value)) => format!("version {v}, {} bytes", value.len()),
        None => "a miss".to_string(),
    }
}

impl Model {
    /// The model after preloading `values[k]` at `versions[k]`.
    pub fn preloaded(values: Vec<Vec<u8>>, versions: &[u64]) -> Model {
        assert_eq!(values.len(), versions.len());
        Model {
            slots: values
                .into_iter()
                .zip(versions)
                .map(|(value, &v)| Slot::Present(v, value))
                .collect(),
        }
    }

    fn slot(&mut self, key: u64) -> &mut Slot {
        &mut self.slots[key as usize]
    }

    /// Checks a read of `key` against the model.
    pub fn check_read(&mut self, key: u64, hit: &Option<(u64, Vec<u8>)>) -> Result<(), Mismatch> {
        let slot = self.slot(key);
        let ok = match (&*slot, hit) {
            (Slot::Unknown, _) => {
                *slot = match hit {
                    Some((v, value)) => Slot::Present(*v, value.clone()),
                    None => Slot::Absent,
                };
                true
            }
            (Slot::Absent, None) => true,
            (Slot::Present(v, value), Some((got_v, got))) => v == got_v && value == got,
            _ => false,
        };
        if ok {
            Ok(())
        } else {
            Err(Mismatch(format!(
                "read of key {key} returned {}, the model holds {}",
                show(hit),
                self.describe(key)
            )))
        }
    }

    /// Records a stored write of `value` at `version`, which must be
    /// newer than the version it replaces.
    pub fn stored(&mut self, key: u64, version: u64, value: Vec<u8>) -> Result<(), Mismatch> {
        let slot = self.slot(key);
        if let Slot::Present(old, _) = slot {
            if version <= *old {
                return Err(Mismatch(format!(
                    "write of key {key} got version {version}, not newer than {old}"
                )));
            }
        }
        *slot = Slot::Present(version, value);
        Ok(())
    }

    /// Records a delete that reported `found`.
    pub fn deleted(&mut self, key: u64, found: bool) -> Result<(), Mismatch> {
        let slot = self.slot(key);
        let expected = match slot {
            Slot::Present(..) => Some(true),
            Slot::Absent => Some(false),
            Slot::Unknown => None,
        };
        *slot = Slot::Absent;
        match expected {
            Some(e) if e != found => Err(Mismatch(format!(
                "delete of key {key} reported found={found}, the model says {e}"
            ))),
            _ => Ok(()),
        }
    }

    /// Marks a key whose write failed in transit.
    pub fn unknown(&mut self, key: u64) {
        *self.slot(key) = Slot::Unknown;
    }

    fn describe(&self, key: u64) -> String {
        match &self.slots[key as usize] {
            Slot::Absent => "nothing".into(),
            Slot::Present(v, value) => format!("version {v}, {} bytes", value.len()),
            Slot::Unknown => "an unknown state".into(),
        }
    }

    /// Compares a full dump `(key bytes, version, value)` of the store
    /// with the model. Keys are the service's 8-byte big-endian form.
    pub fn check_dump(&self, dump: &[(Bytes, u64, Bytes)]) -> Result<(), Mismatch> {
        let mut seen = vec![false; self.slots.len()];
        for (k, version, value) in dump {
            let key = <[u8; 8]>::try_from(k.as_ref())
                .map(u64::from_be_bytes)
                .map_err(|_| Mismatch(format!("store holds a {}-byte key", k.len())))?;
            let slot = self
                .slots
                .get(key as usize)
                .ok_or_else(|| Mismatch(format!("store holds key {key} outside the keyspace")))?;
            seen[key as usize] = true;
            match slot {
                Slot::Unknown => {}
                Slot::Present(v, want) if v == version && want.as_slice() == value.as_ref() => {}
                _ => {
                    return Err(Mismatch(format!(
                        "store holds key {key} at version {version}, the model holds {}",
                        self.describe(key)
                    )))
                }
            }
        }
        match self
            .slots
            .iter()
            .zip(&seen)
            .position(|(s, &seen)| matches!(s, Slot::Present(..)) && !seen)
        {
            Some(key) => Err(Mismatch(format!(
                "store lost key {key}, the model holds {}",
                self.describe(key as u64)
            ))),
            None => Ok(()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn model() -> Model {
        Model::preloaded(vec![b"a".to_vec(), b"b".to_vec()], &[5, 6])
    }

    fn entry(key: u64, version: u64, value: &[u8]) -> (Bytes, u64, Bytes) {
        (
            Bytes::copy_from_slice(&key.to_be_bytes()),
            version,
            Bytes::copy_from_slice(value),
        )
    }

    #[test]
    fn doctored_reads_fail_the_check() {
        let mut m = model();
        assert!(m.check_read(0, &Some((5, b"a".to_vec()))).is_ok());
        // Wrong value, wrong version, a miss, and a resurrected key.
        assert!(m.check_read(0, &Some((5, b"x".to_vec()))).is_err());
        assert!(m.check_read(0, &Some((4, b"a".to_vec()))).is_err());
        assert!(m.check_read(0, &None).is_err());
        m.deleted(1, true).unwrap();
        assert!(m.check_read(1, &Some((6, b"b".to_vec()))).is_err());
        assert!(m.check_read(1, &None).is_ok());
    }

    #[test]
    fn writes_and_deletes_are_checked() {
        let mut m = model();
        assert!(m.stored(0, 5, b"c".to_vec()).is_err(), "stale version");
        m.stored(0, 9, b"c".to_vec()).unwrap();
        assert!(m.check_read(0, &Some((9, b"c".to_vec()))).is_ok());
        assert!(m.deleted(0, false).is_err(), "delete missed a stored key");
        assert!(m.deleted(0, false).is_ok());
        assert!(m.deleted(0, true).is_err(), "delete found an absent key");
    }

    #[test]
    fn unknown_keys_adopt_the_next_read() {
        let mut m = model();
        m.unknown(0);
        assert!(m.check_read(0, &Some((7, b"z".to_vec()))).is_ok());
        assert!(m.check_read(0, &Some((5, b"a".to_vec()))).is_err());
    }

    #[test]
    fn doctored_dumps_fail_the_check() {
        let m = model();
        assert!(m
            .check_dump(&[entry(0, 5, b"a"), entry(1, 6, b"b")])
            .is_ok());
        assert!(m.check_dump(&[entry(0, 5, b"a")]).is_err(), "lost key");
        assert!(m
            .check_dump(&[entry(0, 5, b"a"), entry(1, 6, b"x")])
            .is_err());
        assert!(m
            .check_dump(&[entry(0, 5, b"a"), entry(1, 7, b"b")])
            .is_err());
        let extra = [entry(0, 5, b"a"), entry(1, 6, b"b"), entry(2, 1, b"")];
        assert!(m.check_dump(&extra).is_err(), "key outside the keyspace");
    }
}
