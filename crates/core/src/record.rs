//! Stored record representation: one version chain that serves both
//! the *versioned data* reads of Section 6.2.2 and MVCC snapshot reads.
//!
//! Every record carries the owning TC's id, the "link" of Section 6.1.2
//! that associates it with the single per-TC abLSN on the page so a
//! failed TC's records can be selectively reset.
//!
//! A record keeps a short history of *committed* payloads keyed by
//! **commit LSN** (the redo log totally orders commits). A mutation
//! installs its payload as `current` with `current_commit = None`; the
//! TC's post-commit [`StampCommit`] operation fills in the commit LSN,
//! publishing the version. When a later write displaces a stamped
//! `current`, the displaced payload moves into `versions`; a displaced
//! *unstamped* payload (an intermediate write of the same transaction, or
//! an aborted write) parks in `staged` until garbage collection reclaims
//! it. Deletes become tombstones (`tomb`) so a snapshot older than the
//! delete can still see the record; tombstoned records are physically
//! removed only once no retained snapshot can need them.
//!
//! Section 6.2.2 reads the same chain: *Committed = newest stamped;
//! revert = drop the unstamped head*. A read-committed reader from any
//! TC sees the newest stamped version, so it neither blocks on nor sees
//! an uncommitted update. An aborting versioned write's
//! [`RevertVersion`] drops the unstamped `current` and reinstates the
//! newest committed version, or removes the record if there is none (the
//! aborted write was an insert).
//!
//! Commit LSNs are meaningful only within one TC's log. When ownership
//! of a record moves to a different TC the old owner's history is
//! dropped, except its newest committed payload: that stays as an
//! `Lsn(0)` entry, committed before anything the new owner logs.
//!
//! [`StampCommit`]: crate::op::LogicalOp::StampCommit
//! [`RevertVersion`]: crate::op::LogicalOp::RevertVersion

use crate::codec::{Decoder, Encoder};
use crate::error::CoreError;
use crate::ids::TcId;
use crate::lsn::Lsn;

/// A record as stored in a DC.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct StoredRecord {
    /// Latest payload: committed once stamped, uncommitted (or
    /// aborted) while `current_commit` is `None`.
    pub current: Vec<u8>,
    /// The TC whose update produced `current` (Section 6.1.2).
    pub owner: TcId,
    /// True if the latest operation was a delete: the record is absent
    /// to latest/committed readers but its history still serves
    /// snapshots older than the delete.
    pub tomb: bool,
    /// LSN of the operation that produced `current` (what a
    /// `StampCommit` matches against).
    pub current_op: Lsn,
    /// Commit LSN of `current` once its transaction's stamp has
    /// arrived; `None` while in flight (or aborted).
    pub current_commit: Option<Lsn>,
    /// Committed history, ascending by commit LSN, excluding `current`.
    /// A `None` payload is a delete tombstone version.
    pub versions: Vec<(Lsn, Option<Vec<u8>>)>,
    /// Displaced payloads whose stamp has not arrived, keyed by the op
    /// LSN that created them. Normally dead (intermediate writes of one
    /// transaction, or aborted writes); reclaimed by GC.
    pub staged: Vec<(Lsn, Option<Vec<u8>>)>,
}

impl StoredRecord {
    /// A record committed "since forever" (visible to every snapshot).
    /// Test/bootstrap convenience; the engine uses [`StoredRecord::new`]
    /// with the creating op's LSN.
    pub fn committed(payload: Vec<u8>, owner: TcId) -> Self {
        StoredRecord {
            current_commit: Some(Lsn(0)),
            ..Self::new(payload, owner, Lsn(0))
        }
    }

    /// A freshly inserted record: unstamped until the transaction's
    /// commit stamp arrives.
    pub fn new(payload: Vec<u8>, owner: TcId, op: Lsn) -> Self {
        StoredRecord {
            current: payload,
            owner,
            tomb: false,
            current_op: op,
            current_commit: None,
            versions: Vec::new(),
            staged: Vec::new(),
        }
    }

    /// Payload visible to the owning TC (its own latest write) and to
    /// dirty readers (Section 6.2.1): `None` if the record is a delete
    /// tombstone.
    pub fn read_latest(&self) -> Option<&[u8]> {
        if self.tomb {
            None
        } else {
            Some(&self.current)
        }
    }

    /// Payload visible to a snapshot at `at`: the newest version whose
    /// commit LSN is `<= at`. Unstamped data is invisible. Only
    /// meaningful when `at` is in the owning TC's LSN space, except
    /// `Lsn::MAX`: the newest stamped version, which is what a
    /// read-committed reader of any TC sees (Section 6.2.2).
    pub fn read_snapshot(&self, at: Lsn) -> Option<&[u8]> {
        if let Some(c) = self.current_commit {
            if c <= at {
                return if self.tomb { None } else { Some(&self.current) };
            }
        }
        self.versions
            .iter()
            .rev()
            .find(|(c, _)| *c <= at)
            .and_then(|(_, v)| v.as_deref())
    }

    /// Move `current` into the history (`versions` if stamped, `staged`
    /// if its stamp never arrived) ahead of an overwrite.
    fn displace(&mut self) {
        let old = std::mem::take(&mut self.current);
        let payload = if self.tomb { None } else { Some(old) };
        match self.current_commit.take() {
            Some(c) => self.versions.push((c, payload)),
            None => self.staged.push((self.current_op, payload)),
        }
    }

    /// Drop the history of the previous owner ahead of a write by a
    /// different TC: its commit LSNs are not comparable in the new
    /// owner's log. Its newest committed payload stays as an `Lsn(0)`
    /// entry, so committed readers and the new owner's revert still
    /// find it.
    fn drop_foreign_history(&mut self) {
        let newest = match self.current_commit {
            Some(_) => (!self.tomb).then(|| std::mem::take(&mut self.current)),
            None => self.versions.pop().and_then(|(_, v)| v),
        };
        self.versions.clear();
        self.staged.clear();
        self.versions.extend(newest.map(|v| (Lsn(0), Some(v))));
    }

    /// Install an unstamped `current` (`None` = tombstone), retaining
    /// the old state in the version chain.
    fn install(&mut self, payload: Option<Vec<u8>>, owner: TcId, op: Lsn) {
        if owner == self.owner {
            self.displace();
        } else {
            self.drop_foreign_history();
        }
        self.tomb = payload.is_none();
        self.current = payload.unwrap_or_default();
        self.owner = owner;
        self.current_op = op;
        self.current_commit = None;
    }

    /// Overwrite with a new (unstamped) payload, retaining the old
    /// state in the version chain. Clears a tombstone (insert-over-
    /// delete).
    pub fn overwrite(&mut self, payload: Vec<u8>, owner: TcId, op: Lsn) {
        self.install(Some(payload), owner, op);
    }

    /// Delete: become an (unstamped) tombstone, retaining the old state
    /// in the version chain.
    pub fn delete(&mut self, owner: TcId, op: Lsn) {
        self.install(None, owner, op);
    }

    /// Apply a commit stamp for the version created by op LSN `op`.
    /// Returns true if a version was stamped (false: the target was
    /// already displaced-and-stamped, or never existed here — a resend).
    pub fn stamp(&mut self, op: Lsn, commit: Lsn) -> bool {
        if self.current_op == op && self.current_commit.is_none() {
            self.current_commit = Some(commit);
            return true;
        }
        if let Some(i) = self.staged.iter().position(|(o, _)| *o == op) {
            let (_, payload) = self.staged.remove(i);
            let at = self.versions.partition_point(|(c, _)| *c <= commit);
            self.versions.insert(at, (commit, payload));
            return true;
        }
        false
    }

    /// Abort a versioned write (Section 6.2.2): drop the unstamped
    /// `current` and reinstate the newest committed version with its
    /// stamp. Returns `false` if there is none — the aborted write was
    /// an insert and the record should be removed. A stamped `current`
    /// has nothing to revert (an earlier revert of the same transaction
    /// already dropped its writes): no-op.
    #[must_use]
    pub fn revert(&mut self) -> bool {
        if self.current_commit.is_some() {
            return true;
        }
        let Some((commit, payload)) = self.versions.pop() else {
            return false;
        };
        self.tomb = payload.is_none();
        self.current = payload.unwrap_or_default();
        self.current_op = Lsn(0);
        self.current_commit = Some(commit);
        true
    }

    /// Garbage-collect history no snapshot at or above `floor` can
    /// need: versions older than the newest one visible at `floor`, and
    /// staged payloads whose op LSN fell below `floor` (their stamp can
    /// no longer be outstanding). Returns the number of entries pruned.
    pub fn gc(&mut self, floor: Lsn) -> usize {
        let before = self.versions.len() + self.staged.len();
        let newest_covered = if self.current_commit.is_some_and(|c| c <= floor) {
            // `current` serves every snapshot >= floor.
            self.versions.len()
        } else {
            // Keep the newest version <= floor as the floor fallback.
            self.versions
                .partition_point(|(c, _)| *c <= floor)
                .saturating_sub(1)
        };
        self.versions.drain(..newest_covered);
        self.staged.retain(|(o, _)| *o > floor);
        before - (self.versions.len() + self.staged.len())
    }

    /// True once a tombstone can be physically removed: no history
    /// remains, and either the delete is stamped below `floor`, or it
    /// is unstamped with an op LSN below `floor` — its stamp can no
    /// longer be outstanding (an aborted delete, or the rollback of an
    /// insert).
    pub fn tomb_reclaimable(&self, floor: Lsn) -> bool {
        self.tomb
            && self.versions.is_empty()
            && self.staged.is_empty()
            && match self.current_commit {
                Some(c) => c <= floor,
                None => self.current_op <= floor,
            }
    }

    /// Retained version-chain entries (history + staged), for memory
    /// accounting.
    pub fn chain_len(&self) -> usize {
        self.versions.len() + self.staged.len()
    }

    fn version_entry_size(v: &Option<Vec<u8>>) -> usize {
        8 + 1 + v.as_ref().map_or(0, |b| 4 + b.len())
    }

    fn encode_version_entry(enc: &mut Encoder, (lsn, v): &(Lsn, Option<Vec<u8>>)) {
        enc.u64(lsn.0);
        match v {
            None => enc.u8(0),
            Some(b) => {
                enc.u8(1);
                enc.bytes(b);
            }
        }
    }

    fn decode_version_entry(dec: &mut Decoder<'_>) -> Result<(Lsn, Option<Vec<u8>>), CoreError> {
        let lsn = Lsn(dec.u64()?);
        let v = match dec.u8()? {
            0 => None,
            1 => Some(dec.bytes()?.to_vec()),
            _ => {
                return Err(CoreError::Codec {
                    what: "bad version-entry tag",
                    at: 0,
                })
            }
        };
        Ok((lsn, v))
    }

    /// Encoded size in a page image.
    pub fn encoded_size(&self) -> usize {
        let commit = match self.current_commit {
            None => 1,
            Some(_) => 1 + 8,
        };
        let chain: usize = self
            .versions
            .iter()
            .chain(self.staged.iter())
            .map(|(_, v)| Self::version_entry_size(v))
            .sum();
        2 + 4 + self.current.len() + 1 + 8 + commit + 4 + 4 + chain
    }

    /// Serialize into a page image.
    pub fn encode(&self, enc: &mut Encoder) {
        enc.u16(self.owner.0);
        enc.bytes(&self.current);
        enc.bool(self.tomb);
        enc.u64(self.current_op.0);
        match self.current_commit {
            None => enc.u8(0),
            Some(c) => {
                enc.u8(1);
                enc.u64(c.0);
            }
        }
        enc.u32(self.versions.len() as u32);
        for e in &self.versions {
            Self::encode_version_entry(enc, e);
        }
        enc.u32(self.staged.len() as u32);
        for e in &self.staged {
            Self::encode_version_entry(enc, e);
        }
    }

    /// Deserialize from a page image.
    pub fn decode(dec: &mut Decoder<'_>) -> Result<Self, CoreError> {
        let owner = TcId(dec.u16()?);
        let current = dec.bytes()?.to_vec();
        let tomb = dec.bool()?;
        let current_op = Lsn(dec.u64()?);
        let current_commit = match dec.u8()? {
            0 => None,
            1 => Some(Lsn(dec.u64()?)),
            _ => {
                return Err(CoreError::Codec {
                    what: "bad commit-stamp tag",
                    at: 0,
                })
            }
        };
        let nv = dec.u32()? as usize;
        let mut versions = Vec::with_capacity(nv);
        for _ in 0..nv {
            versions.push(Self::decode_version_entry(dec)?);
        }
        let ns = dec.u32()? as usize;
        let mut staged = Vec::with_capacity(ns);
        for _ in 0..ns {
            staged.push(Self::decode_version_entry(dec)?);
        }
        Ok(StoredRecord {
            current,
            owner,
            tomb,
            current_op,
            current_commit,
            versions,
            staged,
        })
    }
}

/// Static description of a table hosted by a DC.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct TableSpec {
    /// Table identifier (agreed between TC and DC at deployment time).
    pub id: crate::ids::TableId,
    /// Human-readable name.
    pub name: String,
    /// Whether the table takes versioned writes (upserts the DC itself
    /// reverts on abort) for cross-TC read-committed sharing (Section
    /// 6.2.2).
    pub versioned: bool,
}

impl TableSpec {
    /// Convenience constructor for an unversioned table.
    pub fn plain(id: crate::ids::TableId, name: &str) -> Self {
        TableSpec {
            id,
            name: name.to_string(),
            versioned: false,
        }
    }

    /// Convenience constructor for a versioned table.
    pub fn versioned(id: crate::ids::TableId, name: &str) -> Self {
        TableSpec {
            id,
            name: name.to_string(),
            versioned: true,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn committed_record_reads_same_everywhere() {
        let r = StoredRecord::committed(b"v1".to_vec(), TcId(1));
        assert_eq!(r.read_snapshot(Lsn::MAX), Some(&b"v1"[..]));
        assert_eq!(r.read_latest(), Some(&b"v1"[..]));
        assert_eq!(r.read_snapshot(Lsn(0)), Some(&b"v1"[..]));
    }

    #[test]
    fn unstamped_write_is_invisible_to_committed_readers() {
        let mut r = StoredRecord::committed(b"old".to_vec(), TcId(1));
        r.overwrite(b"new".to_vec(), TcId(1), Lsn(5));
        assert_eq!(r.read_latest(), Some(&b"new"[..]), "owner sees its write");
        assert_eq!(
            r.read_snapshot(Lsn::MAX),
            Some(&b"old"[..]),
            "readers see committed"
        );
        assert!(r.stamp(Lsn(5), Lsn(7)));
        assert_eq!(r.read_snapshot(Lsn::MAX), Some(&b"new"[..]));
    }

    #[test]
    fn revert_drops_every_unstamped_write_of_the_transaction() {
        let mut r = StoredRecord::committed(b"v0".to_vec(), TcId(1));
        r.overwrite(b"v1".to_vec(), TcId(1), Lsn(5));
        r.overwrite(b"v2".to_vec(), TcId(1), Lsn(6));
        assert_eq!(r.read_snapshot(Lsn::MAX), Some(&b"v0"[..]));
        // Rollback sends one revert per write, newest first.
        assert!(r.revert());
        assert!(r.revert(), "the second revert finds nothing unstamped");
        assert_eq!(r.read_latest(), Some(&b"v0"[..]));
        assert_eq!(
            r.current_commit,
            Some(Lsn(0)),
            "revert reinstates the committed version with its stamp"
        );
    }

    #[test]
    fn reverted_insert_is_removed() {
        let mut r = StoredRecord::new(b"new".to_vec(), TcId(2), Lsn(7));
        assert_eq!(r.read_snapshot(Lsn::MAX), None);
        assert!(!r.revert(), "revert of an insert removes the record");
    }

    #[test]
    fn snapshot_sees_version_at_or_below_its_lsn() {
        let mut r = StoredRecord::new(b"a".to_vec(), TcId(1), Lsn(10));
        assert_eq!(r.read_snapshot(Lsn(100)), None, "unstamped is invisible");
        assert!(r.stamp(Lsn(10), Lsn(12)));
        assert_eq!(r.read_snapshot(Lsn(11)), None);
        assert_eq!(r.read_snapshot(Lsn(12)), Some(&b"a"[..]));
        r.overwrite(b"b".to_vec(), TcId(1), Lsn(20));
        assert!(r.stamp(Lsn(20), Lsn(22)));
        assert_eq!(r.read_snapshot(Lsn(12)), Some(&b"a"[..]));
        assert_eq!(r.read_snapshot(Lsn(21)), Some(&b"a"[..]));
        assert_eq!(r.read_snapshot(Lsn(22)), Some(&b"b"[..]));
    }

    #[test]
    fn tombstone_hides_record_but_serves_old_snapshots() {
        let mut r = StoredRecord::new(b"a".to_vec(), TcId(1), Lsn(10));
        assert!(r.stamp(Lsn(10), Lsn(12)));
        r.delete(TcId(1), Lsn(20));
        assert_eq!(r.read_latest(), None);
        assert_eq!(r.read_snapshot(Lsn::MAX), Some(&b"a"[..]));
        assert_eq!(r.read_snapshot(Lsn(12)), Some(&b"a"[..]));
        assert!(r.stamp(Lsn(20), Lsn(22)));
        assert_eq!(r.read_snapshot(Lsn(22)), None, "snapshot sees the delete");
        assert_eq!(r.read_snapshot(Lsn::MAX), None);
        assert!(!r.tomb_reclaimable(Lsn(12)));
        assert_eq!(r.gc(Lsn(22)), 1);
        assert!(r.tomb_reclaimable(Lsn(22)));
        // Insert over the tombstone revives the record.
        r.overwrite(b"c".to_vec(), TcId(1), Lsn(30));
        assert_eq!(r.read_latest(), Some(&b"c"[..]));
    }

    #[test]
    fn displaced_unstamped_write_stamps_into_history() {
        let mut r = StoredRecord::new(b"a".to_vec(), TcId(1), Lsn(10));
        r.overwrite(b"b".to_vec(), TcId(1), Lsn(11));
        assert_eq!(r.staged.len(), 1, "unstamped displaced value parks");
        assert!(r.stamp(Lsn(10), Lsn(12)), "late stamp finds it");
        assert_eq!(r.read_snapshot(Lsn(12)), Some(&b"a"[..]));
        assert!(!r.stamp(Lsn(10), Lsn(12)), "duplicate stamp is a no-op");
    }

    #[test]
    fn gc_prunes_below_floor_but_keeps_floor_fallback() {
        let mut r = StoredRecord::new(b"a".to_vec(), TcId(1), Lsn(10));
        assert!(r.stamp(Lsn(10), Lsn(12)));
        r.overwrite(b"b".to_vec(), TcId(1), Lsn(20));
        assert!(r.stamp(Lsn(20), Lsn(22)));
        r.overwrite(b"c".to_vec(), TcId(1), Lsn(30));
        assert_eq!(r.chain_len(), 2);
        // Floor 25: current is unstamped, so the newest version <= 25
        // (commit 22) must survive as the fallback.
        assert_eq!(r.gc(Lsn(25)), 1);
        assert_eq!(r.read_snapshot(Lsn(25)), Some(&b"b"[..]));
        assert!(r.stamp(Lsn(30), Lsn(32)));
        // Now current covers everything >= its commit.
        assert_eq!(r.gc(Lsn(32)), 1);
        assert_eq!(r.chain_len(), 0);
        assert_eq!(r.read_snapshot(Lsn(32)), Some(&b"c"[..]));
    }

    #[test]
    fn ownership_change_keeps_only_the_newest_committed_payload() {
        let mut r = StoredRecord::new(b"a".to_vec(), TcId(1), Lsn(10));
        assert!(r.stamp(Lsn(10), Lsn(12)));
        r.overwrite(b"b".to_vec(), TcId(1), Lsn(20));
        // TC 2 writes over TC 1's unstamped `b`: only the committed `a`
        // survives, at `Lsn(0)` in TC 2's LSN space.
        r.overwrite(b"c".to_vec(), TcId(2), Lsn(3));
        assert_eq!(r.owner, TcId(2));
        assert_eq!(r.versions, vec![(Lsn(0), Some(b"a".to_vec()))]);
        assert!(r.staged.is_empty(), "old owner's staged payloads dropped");
        assert_eq!(r.read_snapshot(Lsn::MAX), Some(&b"a"[..]));
        assert_eq!(r.read_snapshot(Lsn(1)), Some(&b"a"[..]));
        assert!(r.revert());
        assert_eq!(r.read_latest(), Some(&b"a"[..]), "abort brings it back");
        assert_eq!(r.current_commit, Some(Lsn(0)));
    }

    #[test]
    fn encode_decode_roundtrip() {
        let mut stamped = StoredRecord::new(b"x".to_vec(), TcId(1), Lsn(5));
        assert!(stamped.stamp(Lsn(5), Lsn(7)));
        stamped.overwrite(b"y".to_vec(), TcId(1), Lsn(9));
        let mut tomb = StoredRecord::new(b"t".to_vec(), TcId(4), Lsn(2));
        tomb.delete(TcId(4), Lsn(3));
        let mut adopted = StoredRecord::committed(b"y".to_vec(), TcId(9));
        adopted.overwrite(b"z".to_vec(), TcId(8), Lsn(4));
        for r in [
            StoredRecord::committed(b"abc".to_vec(), TcId(3)),
            StoredRecord::new(b"x".to_vec(), TcId(1), Lsn(44)),
            stamped,
            tomb,
            adopted,
        ] {
            let mut e = Encoder::new();
            r.encode(&mut e);
            let bytes = e.finish();
            assert_eq!(bytes.len(), r.encoded_size());
            let back = StoredRecord::decode(&mut Decoder::new(&bytes)).unwrap();
            assert_eq!(back, r);
        }
    }

    /// The committed history of one record as a plain list, for the
    /// chain model test.
    #[derive(Default)]
    struct Model {
        /// Newest committed payload of earlier owners (the `Lsn(0)`
        /// entry an owner change keeps).
        inherited: Option<Vec<u8>>,
        /// The current owner's commits, ascending: (commit LSN, payload).
        commits: Vec<(Lsn, Option<Vec<u8>>)>,
        /// The open transaction's writes: (op LSN, payload).
        open: Vec<(Lsn, Option<Vec<u8>>)>,
    }

    impl Model {
        fn committed_at(&self, at: Lsn) -> Option<Vec<u8>> {
            match self.commits.iter().rev().find(|(c, _)| *c <= at) {
                Some((_, v)) => v.clone(),
                None => self.inherited.clone(),
            }
        }

        fn latest(&self) -> Option<Vec<u8>> {
            match self.open.last() {
                Some((_, v)) => v.clone(),
                None => self.committed_at(Lsn::MAX),
            }
        }
    }

    /// Seeded random histories of versioned writes and deletes, commit
    /// stamps, reverts, `gc(floor)` and owner changes, checked after
    /// every step against [`Model`]: `read_latest` is the newest write,
    /// `Lsn::MAX` (read committed) the newest stamped one, and every
    /// snapshot at or above the highest GC floor sees the newest commit
    /// at or below it.
    #[test]
    fn chain_matches_committed_history_model() {
        for seed in 0..300u64 {
            let mut rng = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
            let mut next = |n: u64| {
                rng ^= rng << 13;
                rng ^= rng >> 7;
                rng ^= rng << 17;
                rng % n
            };
            let mut rec: Option<StoredRecord> = None;
            let mut m = Model::default();
            let mut owner = TcId(1);
            let mut lsn = 1u64;
            let mut floor = 0u64;
            for step in 0..120 {
                let ctx = format!("seed {seed} step {step}");
                match next(10) {
                    // A write (one in four a delete) by the open
                    // transaction, which opens one if none is open,
                    // sometimes at another TC.
                    0..=3 => {
                        if m.open.is_empty() && next(4) == 0 {
                            owner = TcId(1 + (owner.0 % 3));
                            m.inherited = m.committed_at(Lsn::MAX);
                            m.commits.clear();
                            lsn = 1 + next(5);
                            floor = 0;
                        }
                        lsn += 1;
                        // Deletes only hit a record that exists.
                        let payload = (rec.is_none() || next(4) != 0)
                            .then(|| format!("{seed}.{step}").into_bytes());
                        match (rec.as_mut(), payload.clone()) {
                            (Some(r), Some(p)) => r.overwrite(p, owner, Lsn(lsn)),
                            (Some(r), None) => r.delete(owner, Lsn(lsn)),
                            (None, p) => {
                                rec = Some(StoredRecord::new(p.unwrap(), owner, Lsn(lsn)));
                            }
                        }
                        m.open.push((Lsn(lsn), payload));
                    }
                    // Commit: stamp the transaction's last write.
                    4..=5 => {
                        if let Some((op, v)) = m.open.last().cloned() {
                            lsn += 1;
                            let r = rec.as_mut().expect("a written record exists");
                            assert!(r.stamp(op, Lsn(lsn)), "{ctx}: stamp missed");
                            m.commits.push((Lsn(lsn), v));
                            m.open.clear();
                        }
                    }
                    // Abort: one revert per write, newest first.
                    6..=7 => {
                        for _ in m.open.drain(..) {
                            if let Some(r) = rec.as_mut() {
                                if !r.revert() {
                                    rec = None;
                                }
                            }
                        }
                    }
                    // GC at a floor no later than the last LSN drawn.
                    _ => {
                        floor = floor.max(next(lsn + 1));
                        if let Some(r) = rec.as_mut() {
                            r.gc(Lsn(floor));
                        }
                    }
                }
                let r = rec.as_ref();
                let snapshot = |at| r.and_then(|r| r.read_snapshot(at)).map(<[u8]>::to_vec);
                let latest = r.and_then(StoredRecord::read_latest).map(<[u8]>::to_vec);
                assert_eq!(latest, m.latest(), "{ctx}: latest");
                assert_eq!(
                    snapshot(Lsn::MAX),
                    m.committed_at(Lsn::MAX),
                    "{ctx}: committed"
                );
                for at in floor..=lsn + 1 {
                    assert_eq!(
                        snapshot(Lsn(at)),
                        m.committed_at(Lsn(at)),
                        "{ctx}: snapshot at {at}"
                    );
                }
                if let Some(r) = &rec {
                    let mut e = Encoder::new();
                    r.encode(&mut e);
                    let back = StoredRecord::decode(&mut Decoder::new(&e.finish())).unwrap();
                    assert_eq!(&back, r, "{ctx}: codec roundtrip");
                }
            }
        }
    }
}
