//! Seeded inputs: `mani_bench::BenchFixture::low_fair` datasets (binary
//! Gender × Race, Mallows φ = 0.6) in both upload encodings, plus the
//! request bodies the workloads send.

use std::sync::Arc;

use mani_bench::BenchFixture;
use mani_engine::EngineDataset;
use mani_ranking::{Ranking, RankingProfile};

use crate::json::{write_str, write_str_array};

/// Mallows dispersion of every generated profile.
pub const THETA: f64 = 0.6;

/// SplitMix64: derives independent seeds and samples from one workload seed.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Self {
        Self(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    pub fn below(&mut self, bound: u64) -> u64 {
        self.next_u64() % bound.max(1)
    }
}

/// A seed for item `k` of stream `stream` under the workload seed.
pub fn derive_seed(seed: u64, stream: u64, k: u64) -> u64 {
    Rng::new(
        seed ^ stream.wrapping_mul(0xA24B_AED4_963E_E407) ^ k.wrapping_mul(0x9FB2_1C65_1E98_DF25),
    )
    .next_u64()
}

/// One generated dataset with everything the client needs to send and check.
pub struct Data {
    pub fixture: BenchFixture,
    pub dataset: Arc<EngineDataset>,
    /// Candidate names by candidate index.
    pub names: Vec<String>,
    pub fingerprint: String,
}

impl Data {
    /// `n` candidates and `rankings` base rankings from `seed`.
    pub fn generate(n: usize, rankings: usize, seed: u64) -> Self {
        Self::from_fixture(BenchFixture::low_fair(n, rankings, THETA, seed), rankings)
    }

    /// Keeps the first `keep` rankings of the fixture's profile as the dataset
    /// (the rest stay available in `fixture.profile` as edit material).
    pub fn from_fixture(fixture: BenchFixture, keep: usize) -> Self {
        let rankings = fixture.profile.rankings()[..keep].to_vec();
        let profile = RankingProfile::new(rankings).expect("a prefix of a valid profile");
        let dataset = Arc::new(
            EngineDataset::new("bench", fixture.db.clone(), profile)
                .expect("fixture database and profile agree"),
        );
        let names = fixture
            .db
            .candidates()
            .map(|(_, c)| c.name().to_string())
            .collect();
        let fingerprint = format!("{:016x}", dataset.fingerprint());
        Self {
            fixture,
            dataset,
            names,
            fingerprint,
        }
    }

    pub fn n(&self) -> usize {
        self.names.len()
    }

    /// The JSON upload body: `name`, `candidates`, `rankings`, and a
    /// `domains` object pinning every attribute's value order.
    pub fn json_body(&self) -> String {
        let db = self.dataset.db();
        let attributes: Vec<(&str, Vec<&str>)> = db
            .schema()
            .attributes()
            .map(|(_, a)| (a.name(), a.values().collect()))
            .collect();
        let mut out = String::with_capacity(16 * self.n() * (self.dataset.num_rankings() + 8));
        out.push_str(r#"{"name":"bench","candidates":["#);
        for (i, (_, candidate)) in db.candidates().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(r#"{"name":"#);
            write_str(&mut out, candidate.name());
            out.push_str(r#","attributes":{"#);
            for (j, ((name, domain), value)) in
                attributes.iter().zip(candidate.values()).enumerate()
            {
                if j > 0 {
                    out.push(',');
                }
                write_str(&mut out, name);
                out.push(':');
                write_str(&mut out, domain[value.index()]);
            }
            out.push_str("}}");
        }
        out.push_str(r#"],"rankings":["#);
        for (i, ranking) in self.dataset.profile().rankings().iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            self.write_ranking(&mut out, ranking);
        }
        out.push_str(r#"],"domains":{"#);
        for (j, (name, domain)) in attributes.iter().enumerate() {
            if j > 0 {
                out.push(',');
            }
            write_str(&mut out, name);
            out.push(':');
            write_str_array(&mut out, domain.iter().copied());
        }
        out.push_str("}}");
        out
    }

    /// The binary columnar upload body.
    pub fn columnar_body(&self) -> Vec<u8> {
        mani_service::encode_dataset(&self.dataset)
    }

    /// Appends a ranking as a JSON array of candidate names.
    pub fn write_ranking(&self, out: &mut String, ranking: &Ranking) {
        write_str_array(
            out,
            ranking.iter().map(|id| self.names[id.index()].as_str()),
        );
    }

    /// Candidate names of a ranking, best first.
    pub fn ranking_names(&self, ranking: &Ranking) -> Vec<String> {
        ranking
            .iter()
            .map(|id| self.names[id.index()].clone())
            .collect()
    }
}

/// The open start of a body that solves a registered dataset (optionally a
/// pinned version): `{"dataset":{...},"methods":[...],"delta":Δ`.
fn solve_fields(id: &str, version: Option<u64>, methods: &[&str], delta: f64) -> String {
    let mut out = String::from(r#"{"dataset":{"id":"#);
    write_str(&mut out, id);
    if let Some(version) = version {
        out.push_str(&format!(r#","version":{version}"#));
    }
    out.push_str(r#"},"methods":"#);
    write_str_array(&mut out, methods.iter().copied());
    out.push_str(&format!(r#","delta":{delta}"#));
    out
}

/// A `POST /v1/consensus` body by dataset reference.
pub fn consensus_body(
    id: &str,
    version: Option<u64>,
    methods: &[&str],
    delta: f64,
    wait: bool,
) -> String {
    solve_fields(id, version, methods, delta) + &format!(r#","wait":{wait}}}"#)
}

/// A `POST /v1/sessions` body: the dataset's current version plus `edits`
/// (each an already rendered op object).
pub fn session_body(id: &str, methods: &[&str], delta: f64, edits: &[String]) -> String {
    solve_fields(id, None, methods, delta) + &format!(r#","edits":[{}]}}"#, edits.join(","))
}

/// FNV-1a over a sequence of byte strings: the run's ranking digest.
#[derive(Debug, Clone, Copy)]
pub struct Digest(u64);

impl Default for Digest {
    fn default() -> Self {
        Self(0xcbf2_9ce4_8422_2325)
    }
}

impl Digest {
    pub fn add(&mut self, bytes: &[u8]) {
        for byte in bytes.iter().chain(b"\n") {
            self.0 ^= u64::from(*byte);
            self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
        }
    }

    pub fn hex(&self) -> String {
        format!("{:016x}", self.0)
    }
}
