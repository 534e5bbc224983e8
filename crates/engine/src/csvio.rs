//! Hand-rolled CSV front-end for the `mani` CLI: candidate tables and ranking
//! profiles, in both directions.
//!
//! ## Candidate files
//!
//! The header names the protected attributes; every row is one candidate.
//! Attribute value domains are inferred from the values seen, in first-
//! appearance order (which keeps ids deterministic for a given file):
//!
//! ```csv
//! name,Gender,Race
//! alice,Woman,GroupA
//! bola,Man,GroupB
//! ```
//!
//! An optional `# domain: Attribute=v1,v2,...` comment pins an attribute's
//! value order explicitly (the writer always emits these so files round-trip
//! exactly); inferred values seen later are appended after the declared ones.
//!
//! ## Ranking files
//!
//! One ranking per line, candidate names from best to worst. Blank lines and
//! `#` comments are skipped:
//!
//! ```csv
//! alice,bola,chen
//! bola,alice,chen
//! ```
//!
//! Quoting follows RFC-4180: cells containing commas or quotes are wrapped in
//! double quotes, embedded quotes doubled.

use std::collections::HashSet;
use std::path::Path;

use mani_ranking::{CandidateDb, CandidateDbBuilder, Ranking, RankingProfile};

use crate::error::EngineError;

/// Parses a candidate CSV document (see module docs for the format).
pub fn parse_candidates(text: &str) -> Result<CandidateDb, EngineError> {
    let mut lines = numbered_records(text);
    let (header_line, header) = lines
        .next()
        .ok_or_else(|| EngineError::csv(0, "candidate file has no header"))?;
    let header = header?;
    if header.len() < 2 || !header[0].eq_ignore_ascii_case("name") {
        return Err(EngineError::csv(
            header_line,
            "header must be `name,<Attribute>,...` with at least one attribute",
        ));
    }
    let attribute_names = &header[1..];

    // First pass: collect rows and infer each attribute's domain. Explicitly
    // declared domains (`# domain:` comments) come first, in declared order;
    // values only seen in rows are appended in first-appearance order.
    let mut rows: Vec<(usize, Vec<String>)> = Vec::new();
    let mut domains: Vec<Vec<String>> = attribute_names
        .iter()
        .map(|attribute| declared_domain(text, attribute))
        .collect();
    let mut seen: Vec<HashSet<String>> = domains
        .iter()
        .map(|domain| domain.iter().cloned().collect())
        .collect();
    for item in lines {
        let (line, cells) = item;
        let cells = cells?;
        if cells.len() != header.len() {
            return Err(EngineError::csv(
                line,
                format!(
                    "expected {} cells (name + {} attributes), found {}",
                    header.len(),
                    attribute_names.len(),
                    cells.len()
                ),
            ));
        }
        for (attr_index, value) in cells[1..].iter().enumerate() {
            if !seen[attr_index].contains(value) {
                seen[attr_index].insert(value.clone());
                domains[attr_index].push(value.clone());
            }
        }
        rows.push((line, cells));
    }
    if rows.is_empty() {
        return Err(EngineError::csv(0, "candidate file has no data rows"));
    }

    let mut builder = CandidateDbBuilder::new();
    let mut attr_ids = Vec::with_capacity(attribute_names.len());
    for (attribute, domain) in attribute_names.iter().zip(&domains) {
        if domain.len() < 2 {
            return Err(EngineError::csv(
                0,
                format!(
                    "attribute `{attribute}` has {} distinct value(s); protected attributes need at least 2",
                    domain.len()
                ),
            ));
        }
        let id = builder
            .add_attribute(attribute.clone(), domain.iter().map(String::as_str))
            .map_err(EngineError::from)?;
        attr_ids.push(id);
    }
    for (line, cells) in rows {
        let assignments = attr_ids.iter().copied().zip(cells[1..].iter().cloned());
        builder
            .add_candidate_named(cells[0].clone(), assignments)
            .map_err(|e| EngineError::csv(line, e.to_string()))?;
    }
    builder.build().map_err(EngineError::from)
}

/// Parses a ranking CSV document against a known candidate database.
pub fn parse_rankings(text: &str, db: &CandidateDb) -> Result<RankingProfile, EngineError> {
    let names = db.name_index();
    let mut rankings = Vec::new();
    for (line, cells) in numbered_records(text) {
        let cells = cells?;
        if cells.len() != db.len() {
            return Err(EngineError::csv(
                line,
                format!(
                    "ranking lists {} candidates but the database has {}",
                    cells.len(),
                    db.len()
                ),
            ));
        }
        let mut order = Vec::with_capacity(cells.len());
        for name in &cells {
            let id = names
                .get(name.as_str())
                .ok_or_else(|| EngineError::csv(line, format!("unknown candidate `{name}`")))?;
            order.push(*id);
        }
        let ranking =
            Ranking::from_order(order).map_err(|e| EngineError::csv(line, e.to_string()))?;
        rankings.push(ranking);
    }
    RankingProfile::for_database(db, rankings).map_err(EngineError::from)
}

/// Values pinned for `attribute` by a `# domain:` comment, if any. The value
/// list uses the same RFC-4180 quoting as data rows, so values containing
/// commas or quotes survive.
fn declared_domain(text: &str, attribute: &str) -> Vec<String> {
    for (index, raw) in text.lines().enumerate() {
        let Some(rest) = raw.trim().strip_prefix("# domain:") else {
            continue;
        };
        let Some((name, values)) = rest.split_once('=') else {
            continue;
        };
        if name.trim() == attribute {
            return split_record(values, index + 1)
                .unwrap_or_default()
                .into_iter()
                .filter(|v| !v.is_empty())
                .collect();
        }
    }
    Vec::new()
}

/// Renders a candidate database in the CSV format [`parse_candidates`] reads.
pub fn render_candidates(db: &CandidateDb) -> String {
    let mut out = String::from("name");
    for (_, attribute) in db.schema().attributes() {
        out.push(',');
        out.push_str(&escape(attribute.name()));
    }
    out.push('\n');
    // Pin value domains so ids survive a round trip even when the first
    // candidates do not exhibit every value in schema order.
    for (_, attribute) in db.schema().attributes() {
        let values: Vec<String> = attribute.values().map(escape).collect();
        out.push_str(&format!(
            "# domain: {}={}\n",
            attribute.name(),
            values.join(",")
        ));
    }
    for (id, candidate) in db.candidates() {
        out.push_str(&escape(candidate.name()));
        for (attr_id, attribute) in db.schema().attributes() {
            let value = db
                .value_of(id, attr_id)
                .ok()
                .and_then(|v| attribute.value_name(v))
                .unwrap_or("?");
            out.push(',');
            out.push_str(&escape(value));
        }
        out.push('\n');
    }
    out
}

/// Renders a profile in the CSV format [`parse_rankings`] reads: one row per
/// copy, so a run of weight `w` is `w` rows.
pub fn render_rankings(profile: &RankingProfile, db: &CandidateDb) -> String {
    let mut out = String::new();
    for ranking in profile.copies() {
        let names: Vec<String> = ranking
            .iter()
            .map(|id| {
                db.candidate(id)
                    .map(|c| escape(c.name()))
                    .unwrap_or_else(|_| "?".to_string())
            })
            .collect();
        out.push_str(&names.join(","));
        out.push('\n');
    }
    out
}

/// Loads a candidate database from a CSV file.
pub fn load_candidates(path: &Path) -> Result<CandidateDb, EngineError> {
    parse_candidates(&std::fs::read_to_string(path)?)
}

/// Loads a ranking profile from a CSV file.
pub fn load_rankings(path: &Path, db: &CandidateDb) -> Result<RankingProfile, EngineError> {
    parse_rankings(&std::fs::read_to_string(path)?, db)
}

/// Writes a candidate database to a CSV file.
pub fn save_candidates(db: &CandidateDb, path: &Path) -> Result<(), EngineError> {
    std::fs::write(path, render_candidates(db)).map_err(EngineError::from)
}

/// Writes a ranking profile to a CSV file.
pub fn save_rankings(
    profile: &RankingProfile,
    db: &CandidateDb,
    path: &Path,
) -> Result<(), EngineError> {
    std::fs::write(path, render_rankings(profile, db)).map_err(EngineError::from)
}

/// Iterates `(1-based line number, parsed cells)` over data records, skipping
/// blank lines and `#` comments.
fn numbered_records(
    text: &str,
) -> impl Iterator<Item = (usize, Result<Vec<String>, EngineError>)> + '_ {
    text.lines().enumerate().filter_map(|(index, raw)| {
        let line = index + 1;
        let trimmed = raw.trim();
        if trimmed.is_empty() || trimmed.starts_with('#') {
            return None;
        }
        Some((line, split_record(trimmed, line)))
    })
}

/// Splits one CSV record, honouring RFC-4180 double-quote quoting.
fn split_record(record: &str, line: usize) -> Result<Vec<String>, EngineError> {
    let mut cells = Vec::new();
    let mut current = String::new();
    let mut chars = record.chars().peekable();
    let mut in_quotes = false;
    while let Some(c) = chars.next() {
        match c {
            '"' if in_quotes => {
                if chars.peek() == Some(&'"') {
                    chars.next();
                    current.push('"');
                } else {
                    in_quotes = false;
                }
            }
            // Opening quote: allowed when only (ignorable) whitespace has
            // accumulated in the pending cell, e.g. `alice, "x,y"`.
            '"' if current.trim().is_empty() => {
                current.clear();
                in_quotes = true;
            }
            '"' => {
                return Err(EngineError::csv(
                    line,
                    "quote may only open at the start of a cell",
                ))
            }
            ',' if !in_quotes => {
                cells.push(std::mem::take(&mut current).trim().to_string());
            }
            c => current.push(c),
        }
    }
    if in_quotes {
        return Err(EngineError::csv(line, "unterminated quoted cell"));
    }
    cells.push(current.trim().to_string());
    Ok(cells)
}

/// Quotes a cell when needed.
fn escape(cell: &str) -> String {
    if cell.contains(',') || cell.contains('"') || cell.contains('\n') {
        format!("\"{}\"", cell.replace('"', "\"\""))
    } else {
        cell.to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const CANDIDATES: &str = "\
name,Gender,Race
alice,Woman,GroupA
bola,Man,GroupB
chen,Woman,GroupB
dani,Man,GroupA
";

    #[test]
    fn candidates_parse_with_inferred_domains() {
        let db = parse_candidates(CANDIDATES).unwrap();
        assert_eq!(db.len(), 4);
        assert_eq!(db.schema().num_attributes(), 2);
        let gender = db.schema().attribute_id("Gender").unwrap();
        // Domain order = first-appearance order: Woman then Man.
        let attribute = db.schema().attribute(gender).unwrap();
        let values: Vec<&str> = attribute.values().collect();
        assert_eq!(values, vec!["Woman", "Man"]);
        assert!(db.name_index().contains_key("chen"));
    }

    #[test]
    fn rankings_parse_against_database() {
        let db = parse_candidates(CANDIDATES).unwrap();
        let profile = parse_rankings(
            "alice,bola,chen,dani\n# a comment\n\ndani,chen,bola,alice\n",
            &db,
        )
        .unwrap();
        assert_eq!(profile.len(), 2);
        assert_eq!(profile.num_candidates(), 4);
        let first = &profile.rankings()[0];
        assert_eq!(first.candidate_at(0), db.name_index()["alice"]);
    }

    #[test]
    fn helpful_errors_for_malformed_input() {
        assert!(matches!(
            parse_candidates(""),
            Err(EngineError::Csv { line: 0, .. })
        ));
        assert!(parse_candidates("name\nalice\n").is_err(), "no attributes");
        let single_valued = "name,G\na,x\nb,x\n";
        let err = parse_candidates(single_valued).unwrap_err();
        assert!(err.to_string().contains("at least 2"), "{err}");

        let db = parse_candidates(CANDIDATES).unwrap();
        let err = parse_rankings("alice,bola,chen\n", &db).unwrap_err();
        assert!(err.to_string().contains("lists 3"), "{err}");
        let err = parse_rankings("alice,bola,chen,zara\n", &db).unwrap_err();
        assert!(err.to_string().contains("unknown candidate"), "{err}");
        let err = parse_rankings("alice,alice,bola,chen\n", &db).unwrap_err();
        assert!(err.to_string().contains("line 1"), "{err}");
    }

    #[test]
    fn quoting_round_trips() {
        let tricky = "name,Team\n\"last, first\",\"the \"\"A\"\" team\"\nplain,b-team\n";
        let db = parse_candidates(tricky).unwrap();
        assert!(db.name_index().contains_key("last, first"));
        let rendered = render_candidates(&db);
        let reparsed = parse_candidates(&rendered).unwrap();
        assert_eq!(db, reparsed);
    }

    #[test]
    fn database_and_profile_round_trip_through_rendering() {
        let db = parse_candidates(CANDIDATES).unwrap();
        let profile = parse_rankings("alice,bola,chen,dani\ndani,chen,bola,alice\n", &db).unwrap();
        let db2 = parse_candidates(&render_candidates(&db)).unwrap();
        assert_eq!(db, db2);
        let profile2 = parse_rankings(&render_rankings(&profile, &db), &db2).unwrap();
        assert_eq!(profile, profile2);
    }

    #[test]
    fn declared_domains_pin_value_order() {
        let text = "\
name,Gender
# domain: Gender=Man,Woman
a,Woman
b,Man
";
        let db = parse_candidates(text).unwrap();
        let gender = db.schema().attribute_id("Gender").unwrap();
        let attribute = db.schema().attribute(gender).unwrap();
        let values: Vec<&str> = attribute.values().collect();
        // Declared order wins over first-appearance order.
        assert_eq!(values, vec!["Man", "Woman"]);
        // Undeclared values are appended after the declared ones.
        let extended = "name,G\n# domain: G=x,y\na,z\nb,x\n";
        let db = parse_candidates(extended).unwrap();
        let g = db.schema().attribute_id("G").unwrap();
        let values: Vec<&str> = db.schema().attribute(g).unwrap().values().collect();
        assert_eq!(values, vec!["x", "y", "z"]);
    }

    #[test]
    fn comma_bearing_attribute_values_round_trip() {
        let text = "name,Team\na,\"last, first\"\nb,solo\n";
        let db = parse_candidates(text).unwrap();
        let team = db.schema().attribute_id("Team").unwrap();
        let values: Vec<&str> = db.schema().attribute(team).unwrap().values().collect();
        assert_eq!(values, vec!["last, first", "solo"]);
        // The emitted `# domain:` line quotes the comma, so the round trip is exact.
        let rendered = render_candidates(&db);
        let reparsed = parse_candidates(&rendered).unwrap();
        assert_eq!(db, reparsed);
    }

    #[test]
    fn whitespace_before_opening_quote_is_accepted() {
        let cells = split_record("alice, \"x,y\", last", 1).unwrap();
        assert_eq!(cells, vec!["alice", "x,y", "last"]);
        // A quote in the middle of accumulated content is still rejected.
        assert!(split_record("ab\"cd", 1).is_err());
    }

    #[test]
    fn unterminated_quote_is_rejected() {
        let err = split_record("\"open", 9).unwrap_err();
        assert!(err.to_string().contains("line 9"));
    }
}
