//! `application/vnd.mani.columnar` — a compact binary dataset encoding.
//!
//! JSON uploads spend most of their bytes repeating candidate *names* once
//! per ranking entry. The columnar form names every candidate exactly once
//! and stores each ranking as a run of u32 candidate ids, which for the
//! paper's Mallows grids (thousands of rankings over the same pool) is
//! several times smaller and decodes without any string hashing on the hot
//! path.
//!
//! ## Layout (all integers little-endian)
//!
//! ```text
//! magic      8 bytes  "MANICOL1"
//! flags      u32      bit 0: a weights column follows the ranking items
//! fingerprint u64     content fingerprint of the decoded dataset
//! name       str      u32 byte length + UTF-8 bytes (dataset display name)
//! attributes u32 count, then per attribute:
//!              name str, u32 value count, each value str
//! candidates u32 count, then each candidate name str, then per attribute a
//!              column of `count` u32 value indexes (column-major)
//! rankings   u32 count
//! items      u64 total item count, then `count + 1` u64 offsets
//!              (offsets[0] = 0, offsets[count] = total), then `total` u32
//!              candidate ids (ranking `i` spans items[offsets[i]..offsets[i+1]])
//! weights    `count` u32 multiplicities — only when flags bit 0 is set
//! ```
//!
//! The trailing fingerprint check makes the format self-verifying: the
//! decoder rebuilds the dataset, recomputes [`EngineDataset::fingerprint`],
//! and rejects the upload on mismatch, so a columnar upload can never
//! silently diverge from the JSON twin it was derived from — and always
//! shares the warm precedence-matrix cache with it.
//!
//! A `weights` column declares each ranking's multiplicity (voter count).
//! The decoder builds the profile's runs straight from it: a row of weight
//! `w` is one run of the profile, never `w` copies, and adjacent equal rows
//! merge. The weights may sum to at most `u32::MAX`, the profile's limit.
//! [`encode_dataset`] writes the column only when some run weighs more than
//! 1, so an unweighted dataset encodes without it.

use std::sync::Arc;

use mani_engine::EngineDataset;
use mani_ranking::{CandidateDbBuilder, Ranking, RankingProfile};

use crate::error::ApiError;

/// Media type identifying the columnar encoding in content negotiation.
pub const COLUMNAR_CONTENT_TYPE: &str = "application/vnd.mani.columnar";

/// Magic bytes opening every columnar document (format version 1).
pub const COLUMNAR_MAGIC: [u8; 8] = *b"MANICOL1";

/// Flag bit: a weights column follows the ranking items.
const FLAG_WEIGHTS: u32 = 1;

/// In-memory form of a columnar document: the dataset as columns, before it
/// is reassembled into an [`EngineDataset`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ColumnarDataset {
    /// Dataset display name.
    pub name: String,
    /// Protected attributes: `(name, value domain in declared order)`.
    pub attributes: Vec<(String, Vec<String>)>,
    /// Candidates: `(name, one value index per attribute)`.
    pub candidates: Vec<(String, Vec<u32>)>,
    /// Rankings as u32 candidate ids, best first.
    pub rankings: Vec<Vec<u32>>,
    /// Optional per-ranking multiplicities (`None` means every ranking
    /// counts once).
    pub weights: Option<Vec<u32>>,
}

impl ColumnarDataset {
    /// Extracts the columns of an existing dataset, unweighted: one row per
    /// copy, as [`crate::dataset_to_value`] writes JSON.
    pub fn from_dataset(dataset: &EngineDataset) -> Self {
        Self::with_rows(
            dataset,
            dataset.profile().copies().map(|ranking| (ranking, 1)),
        )
    }

    /// Extracts the columns of an existing dataset with one row per `rows`
    /// item, and a weights column when some row weighs more than 1.
    fn with_rows<'a>(
        dataset: &'a EngineDataset,
        rows: impl Iterator<Item = (&'a Ranking, u32)>,
    ) -> Self {
        let db = dataset.db();
        let attributes: Vec<(String, Vec<String>)> = db
            .schema()
            .attributes()
            .map(|(_, attribute)| {
                (
                    attribute.name().to_string(),
                    attribute.values().map(str::to_string).collect(),
                )
            })
            .collect();
        let candidates = db
            .candidates()
            .map(|(_, candidate)| {
                (
                    candidate.name().to_string(),
                    candidate
                        .values()
                        .iter()
                        .map(|v| v.index() as u32)
                        .collect(),
                )
            })
            .collect();
        let (rankings, weights): (Vec<Vec<u32>>, Vec<u32>) = rows
            .map(|(ranking, weight)| (ranking.iter().map(|id| id.0).collect(), weight))
            .unzip();
        Self {
            name: dataset.name().to_string(),
            attributes,
            candidates,
            rankings,
            weights: weights.iter().any(|&w| w > 1).then_some(weights),
        }
    }

    /// Reassembles the columns into a validated [`EngineDataset`], each row
    /// one run of its weight.
    pub fn to_dataset(&self) -> Result<Arc<EngineDataset>, ApiError> {
        let mut builder = CandidateDbBuilder::new();
        let mut attribute_ids = Vec::with_capacity(self.attributes.len());
        for (name, values) in &self.attributes {
            // Mirror the JSON parser's rule so the two codecs accept exactly
            // the same datasets.
            if values.len() < 2 {
                return Err(ApiError::invalid(format!(
                    "columnar: attribute `{name}` has {} distinct value(s); protected attributes need at least 2",
                    values.len()
                )));
            }
            let id = builder
                .add_attribute(name.clone(), values.iter().map(String::as_str))
                .map_err(|e| ApiError::invalid(format!("columnar: {e}")))?;
            attribute_ids.push(id);
        }
        let num_candidates = self.candidates.len();
        for (name, values) in &self.candidates {
            if values.len() != attribute_ids.len() {
                return Err(ApiError::invalid(format!(
                    "columnar: candidate `{name}` has {} value(s) for {} attribute(s)",
                    values.len(),
                    attribute_ids.len()
                )));
            }
            builder
                .add_candidate(
                    name.clone(),
                    attribute_ids
                        .iter()
                        .copied()
                        .zip(values.iter().map(|v| *v as usize)),
                )
                .map_err(|e| ApiError::invalid(format!("columnar: {e}")))?;
        }
        let db = builder
            .build()
            .map_err(|e| ApiError::invalid(format!("columnar: {e}")))?;

        if let Some(weights) = &self.weights {
            if weights.len() != self.rankings.len() {
                return Err(ApiError::invalid(format!(
                    "columnar: {} weight(s) for {} ranking(s)",
                    weights.len(),
                    self.rankings.len()
                )));
            }
        }
        let mut runs = Vec::with_capacity(self.rankings.len());
        for (index, ids) in self.rankings.iter().enumerate() {
            if let Some(&bad) = ids.iter().find(|id| **id as usize >= num_candidates) {
                return Err(ApiError::invalid(format!(
                    "columnar: ranking {index} names candidate id {bad}, but only {num_candidates} candidate(s) exist"
                )));
            }
            let ranking = Ranking::from_ids(ids.iter().copied())
                .map_err(|e| ApiError::invalid(format!("columnar: ranking {index}: {e}")))?;
            let weight = self.weights.as_ref().map_or(1, |weights| weights[index]);
            if weight == 0 {
                return Err(ApiError::invalid(format!(
                    "columnar: ranking {index} has weight 0; drop it instead"
                )));
            }
            runs.push((ranking, weight));
        }
        let profile = RankingProfile::from_runs(runs)
            .map_err(|e| ApiError::invalid(format!("columnar: {e}")))?;
        EngineDataset::new(self.name.clone(), db, profile)
            .map(Arc::new)
            .map_err(|e| ApiError::invalid(format!("columnar: {e}")))
    }

    /// Encodes the columns to wire bytes. The header fingerprint is computed
    /// by materializing the dataset, so an inconsistent column set fails here
    /// rather than producing an undecodable document.
    pub fn encode(&self) -> Result<Vec<u8>, ApiError> {
        let fingerprint = self.to_dataset()?.fingerprint();
        Ok(self.encode_with_fingerprint(fingerprint))
    }

    fn encode_with_fingerprint(&self, fingerprint: u64) -> Vec<u8> {
        let mut w = Writer::default();
        w.bytes(&COLUMNAR_MAGIC);
        let flags = if self.weights.is_some() {
            FLAG_WEIGHTS
        } else {
            0
        };
        w.u32(flags);
        w.u64(fingerprint);
        w.str(&self.name);
        w.u32(self.attributes.len() as u32);
        for (name, values) in &self.attributes {
            w.str(name);
            w.u32(values.len() as u32);
            for value in values {
                w.str(value);
            }
        }
        w.u32(self.candidates.len() as u32);
        for (name, _) in &self.candidates {
            w.str(name);
        }
        for column in 0..self.attributes.len() {
            for (_, values) in &self.candidates {
                w.u32(values[column]);
            }
        }
        w.u32(self.rankings.len() as u32);
        let total: u64 = self.rankings.iter().map(|r| r.len() as u64).sum();
        w.u64(total);
        let mut offset = 0u64;
        w.u64(offset);
        for ranking in &self.rankings {
            offset += ranking.len() as u64;
            w.u64(offset);
        }
        for ranking in &self.rankings {
            for id in ranking {
                w.u32(*id);
            }
        }
        if let Some(weights) = &self.weights {
            for weight in weights {
                w.u32(*weight);
            }
        }
        w.out
    }

    /// Decodes wire bytes into columns plus the header fingerprint. Every
    /// count is validated against the remaining buffer before it drives an
    /// allocation, so a hostile header cannot balloon memory.
    pub fn decode(bytes: &[u8]) -> Result<(Self, u64), ApiError> {
        let mut r = Reader { buf: bytes, pos: 0 };
        let magic = r.bytes(COLUMNAR_MAGIC.len(), "magic")?;
        if magic != COLUMNAR_MAGIC {
            return Err(ApiError::invalid(
                "columnar: bad magic (not a MANICOL1 document)",
            ));
        }
        let flags = r.u32("flags")?;
        if flags & !FLAG_WEIGHTS != 0 {
            return Err(ApiError::invalid(format!(
                "columnar: unsupported flags {flags:#x}"
            )));
        }
        let fingerprint = r.u64("fingerprint")?;
        let name = r.str("dataset name")?;
        let num_attributes = r.count_u32("attribute count", 1)?;
        let mut attributes = Vec::with_capacity(num_attributes);
        for _ in 0..num_attributes {
            let attr_name = r.str("attribute name")?;
            let num_values = r.count_u32("attribute value count", 1)?;
            let mut values = Vec::with_capacity(num_values);
            for _ in 0..num_values {
                values.push(r.str("attribute value")?);
            }
            attributes.push((attr_name, values));
        }
        let num_candidates = r.count_u32("candidate count", 1)?;
        let mut names = Vec::with_capacity(num_candidates);
        for _ in 0..num_candidates {
            names.push(r.str("candidate name")?);
        }
        let mut columns = vec![Vec::with_capacity(num_candidates); attributes.len()];
        for column in columns.iter_mut() {
            for _ in 0..num_candidates {
                column.push(r.u32("candidate value index")?);
            }
        }
        let candidates = names
            .into_iter()
            .enumerate()
            .map(|(i, name)| (name, columns.iter().map(|c| c[i]).collect()))
            .collect();
        let num_rankings = r.count_u32("ranking count", 4)?;
        let total = r.u64("ranking item total")?;
        if total > (r.remaining() / 4) as u64 {
            return Err(ApiError::invalid(format!(
                "columnar: ranking item total {total} exceeds the document size"
            )));
        }
        let total = total as usize;
        let mut offsets = Vec::with_capacity(num_rankings + 1);
        for _ in 0..=num_rankings {
            offsets.push(r.u64("ranking offset")?);
        }
        if offsets[0] != 0
            || offsets[num_rankings] != total as u64
            || offsets.windows(2).any(|w| w[0] > w[1])
        {
            return Err(ApiError::invalid(
                "columnar: ranking offsets must rise monotonically from 0 to the item total",
            ));
        }
        let mut items = Vec::with_capacity(total);
        for _ in 0..total {
            items.push(r.u32("ranking item")?);
        }
        let rankings = offsets
            .windows(2)
            .map(|w| items[w[0] as usize..w[1] as usize].to_vec())
            .collect();
        let weights = if flags & FLAG_WEIGHTS != 0 {
            let mut weights = Vec::with_capacity(num_rankings);
            for _ in 0..num_rankings {
                weights.push(r.u32("ranking weight")?);
            }
            Some(weights)
        } else {
            None
        };
        if r.remaining() != 0 {
            return Err(ApiError::invalid(format!(
                "columnar: {} trailing byte(s) after the document",
                r.remaining()
            )));
        }
        Ok((
            Self {
                name,
                attributes,
                candidates,
                rankings,
                weights,
            },
            fingerprint,
        ))
    }
}

/// Encodes a dataset into columnar wire bytes: one row per run, and a
/// weights column only when some run weighs more than 1.
pub fn encode_dataset(dataset: &EngineDataset) -> Vec<u8> {
    ColumnarDataset::with_rows(dataset, dataset.profile().runs())
        .encode_with_fingerprint(dataset.fingerprint())
}

/// Decodes columnar wire bytes into a validated dataset, rejecting documents
/// whose header fingerprint does not match the decoded content.
pub fn decode_dataset(bytes: &[u8]) -> Result<Arc<EngineDataset>, ApiError> {
    let (columns, claimed) = ColumnarDataset::decode(bytes)?;
    let dataset = columns.to_dataset()?;
    let actual = dataset.fingerprint();
    if actual != claimed {
        return Err(ApiError::invalid(format!(
            "columnar: header fingerprint {claimed:016x} does not match decoded content {actual:016x}"
        )));
    }
    Ok(dataset)
}

#[derive(Default)]
struct Writer {
    out: Vec<u8>,
}

impl Writer {
    fn bytes(&mut self, bytes: &[u8]) {
        self.out.extend_from_slice(bytes);
    }

    fn u32(&mut self, v: u32) {
        self.out.extend_from_slice(&v.to_le_bytes());
    }

    fn u64(&mut self, v: u64) {
        self.out.extend_from_slice(&v.to_le_bytes());
    }

    fn str(&mut self, text: &str) {
        self.u32(text.len() as u32);
        self.bytes(text.as_bytes());
    }
}

struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    fn bytes(&mut self, len: usize, what: &str) -> Result<&'a [u8], ApiError> {
        if len > self.remaining() {
            return Err(ApiError::invalid(format!(
                "columnar: truncated document while reading {what}"
            )));
        }
        let slice = &self.buf[self.pos..self.pos + len];
        self.pos += len;
        Ok(slice)
    }

    fn u32(&mut self, what: &str) -> Result<u32, ApiError> {
        let raw = self.bytes(4, what)?;
        Ok(u32::from_le_bytes(raw.try_into().expect("4-byte slice")))
    }

    fn u64(&mut self, what: &str) -> Result<u64, ApiError> {
        let raw = self.bytes(8, what)?;
        Ok(u64::from_le_bytes(raw.try_into().expect("8-byte slice")))
    }

    /// Reads a count that prefixes elements of at least `min_element_bytes`
    /// each, rejecting counts the remaining buffer cannot possibly hold.
    fn count_u32(&mut self, what: &str, min_element_bytes: usize) -> Result<usize, ApiError> {
        let count = self.u32(what)? as usize;
        if count.saturating_mul(min_element_bytes) > self.remaining() {
            return Err(ApiError::invalid(format!(
                "columnar: {what} {count} exceeds the document size"
            )));
        }
        Ok(count)
    }

    fn str(&mut self, what: &str) -> Result<String, ApiError> {
        let len = self.u32(what)? as usize;
        let raw = self.bytes(len, what)?;
        String::from_utf8(raw.to_vec())
            .map_err(|_| ApiError::invalid(format!("columnar: {what} is not valid UTF-8")))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::{dataset_to_value, parse_dataset};
    use crate::value::parse_body;

    fn demo() -> Arc<EngineDataset> {
        let value = parse_body(
            r#"{
                "name": "demo",
                "candidates": [
                    {"name": "a", "attributes": {"G": "x", "R": "p"}},
                    {"name": "b", "attributes": {"G": "y", "R": "q"}},
                    {"name": "c", "attributes": {"G": "x", "R": "q"}},
                    {"name": "d", "attributes": {"G": "y", "R": "p"}}
                ],
                "rankings": [["a","b","c","d"], ["d","c","b","a"], ["b","a","d","c"]]
            }"#,
        )
        .unwrap();
        parse_dataset(&value).unwrap()
    }

    #[test]
    fn round_trip_preserves_the_fingerprint() {
        let dataset = demo();
        let bytes = encode_dataset(&dataset);
        assert_eq!(&bytes[..8], b"MANICOL1");
        // Without adjacent repeats every run weighs 1: no weights column,
        // the bytes of one row per ranking.
        assert_eq!(
            bytes,
            ColumnarDataset::from_dataset(&dataset).encode().unwrap()
        );
        let decoded = decode_dataset(&bytes).unwrap();
        assert_eq!(decoded.fingerprint(), dataset.fingerprint());
        assert_eq!(decoded.name(), "demo");
        assert_eq!(decoded.num_candidates(), 4);
        assert_eq!(decoded.num_rankings(), 3);
        // And the JSON rendering of both is identical text.
        assert_eq!(
            crate::value::render(&dataset_to_value(&decoded)),
            crate::value::render(&dataset_to_value(&dataset)),
        );
    }

    #[test]
    fn columnar_beats_json_on_size_for_many_rankings() {
        // Realistic names: a u32 id (4 B) replaces a quoted name per ranking
        // entry, so the win scales with name length and ranking count.
        let n = 20u32;
        let columns = ColumnarDataset {
            name: "mallows-grid".to_string(),
            attributes: vec![("Gender".to_string(), vec!["x".to_string(), "y".to_string()])],
            candidates: (0..n)
                .map(|i| (format!("candidate-{i:02}"), vec![i % 2]))
                .collect(),
            rankings: (0..200u32)
                .map(|r| (0..n).map(|i| (i + r) % n).collect())
                .collect(),
            weights: None,
        };
        let dataset = columns.to_dataset().unwrap();
        let binary = encode_dataset(&dataset).len();
        let json = crate::value::render(&dataset_to_value(&dataset)).len();
        assert!(
            binary * 2 < json,
            "columnar ({binary} B) should be well under half of JSON ({json} B)"
        );
    }

    #[test]
    fn weights_expand_into_repeated_rankings() {
        let mut columns = ColumnarDataset::from_dataset(&demo());
        columns.weights = Some(vec![3, 1, 2]);
        let bytes = columns.encode().unwrap();
        let decoded = decode_dataset(&bytes).unwrap();
        assert_eq!(decoded.num_rankings(), 6);
        // Each row is one run of its weight: the profile of the rows
        // repeated, without the copies.
        assert_eq!(decoded.profile().weights(), &[3, 1, 2]);
        let rows = demo().profile().rankings().to_vec();
        let repeated = [0, 0, 0, 1, 2, 2].map(|i| rows[i].clone()).to_vec();
        assert_eq!(**decoded.profile(), RankingProfile::new(repeated).unwrap());
        // The encoder writes the runs back with their weights.
        assert_eq!(encode_dataset(&decoded), bytes);

        let mut zero = ColumnarDataset::from_dataset(&demo());
        zero.weights = Some(vec![1, 0, 1]);
        assert!(zero.to_dataset().unwrap_err().message.contains("weight 0"));

        let mut full = ColumnarDataset::from_dataset(&demo());
        full.weights = Some(vec![u32::MAX - 2, 1, 1]);
        assert_eq!(full.to_dataset().unwrap().num_rankings(), u32::MAX as usize);
        full.weights = Some(vec![u32::MAX, 1, 1]);
        let err = full.to_dataset().unwrap_err();
        assert!(
            err.message.contains("total ranking weight 4294967296"),
            "{err}"
        );
    }

    #[test]
    fn hostile_documents_are_rejected_with_context() {
        let dataset = demo();
        let good = encode_dataset(&dataset);

        // Wrong magic.
        let mut bad = good.clone();
        bad[0] = b'X';
        assert!(decode_dataset(&bad).unwrap_err().message.contains("magic"));

        // Unknown flags.
        let mut bad = good.clone();
        bad[8] = 0xFE;
        assert!(decode_dataset(&bad).unwrap_err().message.contains("flags"));

        // Truncation anywhere in the tail.
        for cut in [good.len() - 1, good.len() / 2, 21] {
            let err = decode_dataset(&good[..cut]).unwrap_err();
            assert!(
                err.message.contains("truncated") || err.message.contains("exceeds"),
                "cut at {cut}: {err}"
            );
        }

        // Forged fingerprint.
        let mut bad = good.clone();
        bad[12] ^= 0xFF;
        assert!(decode_dataset(&bad)
            .unwrap_err()
            .message
            .contains("fingerprint"));

        // A count too large for the document cannot drive an allocation:
        // splice an absurd attribute count right after the header (magic 8 +
        // flags 4 + fingerprint 8 + name length 4 + "demo" 4 = byte 28).
        let mut forged = good.clone();
        forged[28..32].copy_from_slice(&u32::MAX.to_le_bytes());
        let err = decode_dataset(&forged).unwrap_err();
        assert!(err.message.contains("exceeds"), "{err}");
    }

    #[test]
    fn out_of_range_candidate_ids_are_rejected() {
        let mut columns = ColumnarDataset::from_dataset(&demo());
        columns.rankings[0][0] = u32::MAX;
        let err = columns.to_dataset().unwrap_err();
        assert!(err.message.contains("4294967295"), "{err}");
        assert!(columns.encode().is_err(), "encode validates too");
    }
}
