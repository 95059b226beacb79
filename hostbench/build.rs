//! Records the compiler version and build profile for the result's
//! environment stamp.

fn main() {
    let rustc = std::env::var("RUSTC").unwrap_or_else(|_| "rustc".into());
    let version = std::process::Command::new(rustc)
        .arg("--version")
        .output()
        .ok()
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map(|s| s.trim().to_string())
        .unwrap_or_else(|| "unknown".into());
    let profile = std::env::var("PROFILE").unwrap_or_else(|_| "unknown".into());
    println!("cargo:rustc-env=HOSTBENCH_RUSTC={version}");
    println!("cargo:rustc-env=HOSTBENCH_PROFILE={profile}");
    println!("cargo:rerun-if-changed=build.rs");
}
