//! Recorded references of every cell's simulated output.
//!
//! `references.json` maps workload → requests per trace → seed → cell
//! label → FNV-1a digest of the cell's compact `run_json` (plus
//! `tenants_json` for tenant replays). The simulated results must stay
//! byte-identical, so any difference from the recorded digest fails the
//! benchmark. `--record-seeds N` rewrites the entries of seeds `0..N`.

use std::path::PathBuf;

use esp_sim::Json;

const RECORDED: &str = include_str!("../references.json");

/// The recorded digests, keyed as described in the module docs.
pub struct References(Json);

/// Cell label and output digest, in replay order.
pub type Digests = Vec<(String, String)>;

fn source_path() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("references.json")
}

fn member_mut<'a>(obj: &'a mut Json, key: &str) -> &'a mut Json {
    let Json::Obj(members) = obj else {
        panic!("references.json: expected an object above `{key}`");
    };
    let at = match members.iter().position(|(k, _)| k == key) {
        Some(i) => i,
        None => {
            members.push((key.to_string(), Json::Obj(Vec::new())));
            members.len() - 1
        }
    };
    &mut members[at].1
}

impl References {
    /// Parses the references compiled into the binary.
    ///
    /// # Errors
    ///
    /// Returns the parser's message when the file is not valid JSON.
    pub fn load() -> Result<References, String> {
        Json::parse(RECORDED).map(References)
    }

    /// Reads `references.json` from the benchmark's source directory, the
    /// file [`References::save`] writes.
    ///
    /// # Errors
    ///
    /// Returns the I/O or parser error.
    pub fn load_source() -> Result<References, String> {
        let text = std::fs::read_to_string(source_path()).map_err(|e| e.to_string())?;
        Json::parse(&text).map(References)
    }

    /// The seeds recorded for `workload` at `length`, ascending.
    #[must_use]
    pub fn seeds(&self, workload: &str, length: u64) -> Vec<u64> {
        let mut seeds: Vec<u64> = self
            .0
            .get(workload)
            .and_then(|w| w.get(&length.to_string()))
            .and_then(Json::as_obj)
            .map(|s| s.iter().filter_map(|(k, _)| k.parse().ok()).collect())
            .unwrap_or_default();
        seeds.sort_unstable();
        seeds
    }

    /// Compares `got` with the digests recorded for the same workload,
    /// length and seed. Returns one message per difference; `None` when
    /// nothing is recorded for that seed.
    #[must_use]
    pub fn check(
        &self,
        workload: &str,
        length: u64,
        seed: u64,
        got: &Digests,
    ) -> Option<Vec<String>> {
        let recorded = self
            .0
            .get(workload)?
            .get(&length.to_string())?
            .get(&seed.to_string())?;
        let mut problems = Vec::new();
        for (label, digest) in got {
            match recorded.get(label).and_then(Json::as_str) {
                Some(want) if want == digest => {}
                Some(want) => problems.push(format!(
                    "{workload} seed {seed} `{label}`: output digest {digest}, recorded {want}"
                )),
                None => problems.push(format!(
                    "{workload} seed {seed} `{label}`: no recorded output"
                )),
            }
        }
        let cells = recorded.as_obj().map_or(0, <[_]>::len);
        if cells != got.len() {
            problems.push(format!(
                "{workload} seed {seed}: {} cells replayed, {cells} recorded",
                got.len()
            ));
        }
        Some(problems)
    }

    /// Records `got` as the reference for the workload, length and seed.
    pub fn record(&mut self, workload: &str, length: u64, seed: u64, got: &Digests) {
        let by_seed = member_mut(member_mut(&mut self.0, workload), &length.to_string());
        *member_mut(by_seed, &seed.to_string()) = Json::obj(
            got.iter()
                .map(|(label, digest)| (label.clone(), Json::from(digest.as_str()))),
        );
    }

    /// Writes the references back to `references.json` in the benchmark's
    /// source directory.
    ///
    /// # Errors
    ///
    /// Returns the I/O error of the write.
    pub fn save(&self) -> std::io::Result<PathBuf> {
        let path = source_path();
        std::fs::write(&path, self.0.to_pretty())?;
        Ok(path)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn recorded_digests_round_trip_and_differences_are_named() {
        let mut refs = References(Json::Obj(Vec::new()));
        let got: Digests = vec![("a".into(), "01".into()), ("b".into(), "02".into())];
        assert!(refs.check("w", 10, 3, &got).is_none());
        refs.record("w", 10, 3, &got);
        refs.record("w", 10, 1, &got);
        assert_eq!(refs.seeds("w", 10), vec![1, 3]);
        assert_eq!(refs.check("w", 10, 3, &got), Some(Vec::new()));
        let changed: Digests = vec![("a".into(), "01".into()), ("b".into(), "ff".into())];
        let problems = refs.check("w", 10, 3, &changed).expect("recorded");
        assert_eq!(problems.len(), 1);
        assert!(problems[0].contains("`b`"));
        assert!(refs.check("w", 20, 3, &got).is_none());
    }

    #[test]
    fn the_compiled_references_parse() {
        References::load().expect("references.json is valid JSON");
    }
}
