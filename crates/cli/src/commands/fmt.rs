//! `selfstab fmt <file.stab>` — reprint the canonical form.

use selfstab_protocol::file::render_protocol_file;

use crate::args::{load_protocol, Args};

pub fn run(raw: &[String]) -> Result<bool, Box<dyn std::error::Error>> {
    let args = Args::parse(raw, "", "")?;
    let protocol = load_protocol(&args)?;
    print!("{}", render_protocol_file(&protocol));
    Ok(true)
}
