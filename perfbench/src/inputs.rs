//! Workload inputs, made from the benchmark seed and nothing else.
//!
//! The program under test only ever sees the generated CSV bytes (or,
//! for the server, the generator name and seed it is asked to open).

use std::path::Path;

use crate::sys;

use fairem_csvio::{write_csv, write_csv_stream, CsvTable};
use fairem_datasets::{
    citations, faculty_match, CitationsConfig, FacultyConfig, GeneratedDataset, ScaleConfig,
    ScaleDataset,
};

/// Which generator a workload draws from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Data {
    /// Citations: long titles and author lists.
    Citations,
    /// FacultyMatch, the paper's demo dataset.
    Faculty,
    /// Streamed ScaleMatch with about `rows × block_width` candidates.
    Scale {
        /// Rows per table.
        rows: usize,
        /// Candidate pairs per row after blocking.
        block_width: usize,
    },
}

/// The CSV bytes of one workload's inputs.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Inputs {
    /// Left table.
    pub table_a: String,
    /// Right table.
    pub table_b: String,
    /// Ground truth, `id_a,id_b`.
    pub matches: String,
    /// Sensitive columns, in audit order.
    pub sensitive: Vec<String>,
}

const FILES: [&str; 4] = ["tableA.csv", "tableB.csv", "matches.csv", "sensitive.txt"];

/// The generator seed for benchmark seed `seed`. Generators read seed
/// 0 as "use the default", so the mapping never yields 0.
pub fn dataset_seed(seed: u64) -> u64 {
    mix64(seed) | 1
}

/// SplitMix64 finalizer: neighbouring inputs give unrelated outputs.
pub fn mix64(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Generate and serialize the inputs of `data` for benchmark seed `seed`.
pub fn generate(data: Data, seed: u64) -> Result<Inputs, String> {
    let seed = dataset_seed(seed);
    Ok(match data {
        Data::Citations => from_dataset(citations(&CitationsConfig {
            seed,
            ..CitationsConfig::default()
        }))?,
        Data::Faculty => from_dataset(faculty_match(&FacultyConfig {
            seed,
            ..FacultyConfig::default()
        }))?,
        Data::Scale { rows, block_width } => {
            let d = ScaleDataset::new(ScaleConfig {
                seed,
                rows,
                block_width,
                ..ScaleConfig::default()
            });
            Inputs {
                table_a: stream(&d.header(), d.rows_a())?,
                table_b: stream(&d.header(), d.rows_b())?,
                matches: stream(
                    &["id_a".to_owned(), "id_b".to_owned()],
                    d.matches().map(|(a, b)| vec![a, b]),
                )?,
                sensitive: d.sensitive(),
            }
        }
    })
}

fn stream(header: &[String], rows: impl Iterator<Item = Vec<String>>) -> Result<String, String> {
    let mut buf = Vec::new();
    write_csv_stream(&mut buf, header, rows).map_err(|e| e.to_string())?;
    String::from_utf8(buf).map_err(|e| e.to_string())
}

fn from_dataset(d: GeneratedDataset) -> Result<Inputs, String> {
    let csv = |t: &CsvTable| {
        let mut buf = Vec::new();
        write_csv(&mut buf, t).map_err(|e| e.to_string())?;
        String::from_utf8(buf).map_err(|e| e.to_string())
    };
    let matches = CsvTable {
        header: vec!["id_a".into(), "id_b".into()],
        rows: d
            .matches
            .iter()
            .map(|(a, b)| vec![a.clone(), b.clone()])
            .collect(),
    };
    Ok(Inputs {
        table_a: csv(&d.table_a)?,
        table_b: csv(&d.table_b)?,
        matches: csv(&matches)?,
        sensitive: d.sensitive,
    })
}

impl Inputs {
    /// Write the inputs into `dir` (created if missing).
    pub fn write(&self, dir: &Path) -> std::io::Result<()> {
        let sensitive = self.sensitive.join("\n");
        let bodies = [&self.table_a, &self.table_b, &self.matches, &sensitive];
        for (name, body) in FILES.iter().zip(bodies) {
            sys::write(&dir.join(name), body)?;
        }
        Ok(())
    }

    /// Read inputs written by [`Inputs::write`].
    pub fn read(dir: &Path) -> std::io::Result<Inputs> {
        let read = |i: usize| sys::read_to_string(dir.join(FILES[i]));
        Ok(Inputs {
            table_a: read(0)?,
            table_b: read(1)?,
            matches: read(2)?,
            sensitive: read(3)?.lines().map(str::to_owned).collect(),
        })
    }

    /// Total CSV bytes.
    pub fn bytes(&self) -> usize {
        self.table_a.len() + self.table_b.len() + self.matches.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_gives_byte_identical_inputs() {
        for data in [
            Data::Citations,
            Data::Faculty,
            Data::Scale {
                rows: 500,
                block_width: 4,
            },
        ] {
            let a = generate(data, 3).expect("generates");
            let b = generate(data, 3).expect("generates");
            assert_eq!(a, b, "{data:?}");
            let c = generate(data, 4).expect("generates");
            assert_ne!(
                a.table_a, c.table_a,
                "{data:?}: seed must reach the generator"
            );
        }
    }

    #[test]
    fn dataset_seed_is_never_the_generator_default() {
        for s in 0..1000 {
            assert_ne!(dataset_seed(s), 0);
        }
        assert_ne!(dataset_seed(1), dataset_seed(2));
    }

    #[test]
    fn inputs_round_trip_through_a_directory() {
        let dir = Path::new(env!("CARGO_MANIFEST_DIR"))
            .join("../.bench_work")
            .join(format!("test-inputs-{}", std::process::id()));
        let inputs = generate(Data::Faculty, 11).expect("generates");
        inputs.write(&dir).expect("write");
        let back = Inputs::read(&dir).expect("read");
        sys::remove_dir(&dir);
        assert_eq!(inputs, back);
    }
}
