//! Byte-pinned checkpoint files.
//!
//! The round-trip tests in `sparsedist-gen` catch a save/load pair that
//! disagree, but not a format drift that both sides share. This golden
//! records, for CRS and CCS states of one seeded rectangular array on the
//! row, column and 2×2-mesh partitions, each rank file's byte length, kind
//! word and the CRC32 of everything before its checksum word (a CRC over
//! the whole file, footer included, is the same constant for every
//! file). The fixture lives in `tests/goldens/checkpoint.txt`;
//! regenerate it after an intentional format change with
//! `UPDATE_GOLDENS=1 cargo test --test checkpoint_golden` and review the
//! diff.

use sparsedist::gen::checkpoint;
use sparsedist::gen::SparseRandom;
use sparsedist::multicomputer::pack::crc32;
use sparsedist::prelude::*;
use std::fmt::Write as _;

const ROWS: usize = 23;
const COLS: usize = 17;

fn partitions() -> [(&'static str, Box<dyn Partition>); 3] {
    [
        ("row p=4", Box::new(RowBlock::new(ROWS, COLS, 4))),
        ("column p=4", Box::new(ColBlock::new(ROWS, COLS, 4))),
        ("mesh 2x2", Box::new(Mesh2D::new(ROWS, COLS, 2, 2))),
    ]
}

#[test]
fn checkpoint_files_match_golden() {
    let a = SparseRandom::new(ROWS, COLS)
        .sparse_ratio(0.2)
        .seed(11)
        .value_range(1.0, 9.0)
        .generate();
    let m = Multicomputer::virtual_machine(4, MachineModel::ibm_sp2());
    let root = std::env::temp_dir().join(format!("sparsedist_ckpt_golden_{}", std::process::id()));
    let mut text = String::new();
    for (name, part) in partitions() {
        for kind in [CompressKind::Crs, CompressKind::Ccs] {
            let run = run_scheme(SchemeKind::Ed, &m, &a, part.as_ref(), kind).unwrap();
            let dir = root.join(format!("{}_{kind}", name.replace(' ', "_")));
            checkpoint::save(&dir, &run.locals).unwrap();
            writeln!(text, "== {name} {kind}").unwrap();
            for rank in 0..run.locals.len() {
                let bytes = std::fs::read(dir.join(format!("rank_{rank}.sdc"))).unwrap();
                let mut word = [0u8; 8];
                word.copy_from_slice(&bytes[16..24]);
                writeln!(
                    text,
                    "rank {rank}: bytes {} kind {} crc32 {:08x}",
                    bytes.len(),
                    u64::from_le_bytes(word),
                    crc32(&bytes[..bytes.len() - 8])
                )
                .unwrap();
            }
            assert_eq!(checkpoint::load(&dir).unwrap(), run.locals);
        }
    }
    std::fs::remove_dir_all(&root).ok();

    let path = format!(
        "{}/tests/goldens/checkpoint.txt",
        env!("CARGO_MANIFEST_DIR")
    );
    if std::env::var_os("UPDATE_GOLDENS").is_some() {
        std::fs::write(&path, &text).expect("write golden");
    }
    let golden = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("{path}: {e}; run with UPDATE_GOLDENS=1 to create it"));
    assert_eq!(
        text, golden,
        "checkpoint files drifted from their golden; if the change is \
         intentional rerun with UPDATE_GOLDENS=1 and review the diff"
    );
}
