# Tier-1 verify and dev conveniences. `just` mirrors these recipes.

.PHONY: test lint fmt build doc import-fixtures

# Matches the tier-1 verify in ROADMAP.md exactly.
test:
	cargo build --release && cargo test -q

# The same fmt and clippy gates as CI, including the benchmark package,
# which is its own workspace and so outside the root `--all` passes.
lint:
	cargo fmt --all -- --check
	cargo clippy --all-targets -- -D warnings
	cargo fmt --manifest-path perfbench/Cargo.toml -- --check
	cargo clippy --manifest-path perfbench/Cargo.toml --all-targets -- -D warnings

fmt:
	cargo fmt --all

build:
	cargo build --release

# Public-API docs must stay warning-free (CI enforces the same flag).
doc:
	RUSTDOCFLAGS="-D warnings" cargo doc --no-deps

# Regenerate the committed .mat golden fixtures under crates/mat/tests/fixtures/
# and print the digest constants to paste into tests/golden_import.rs.
import-fixtures:
	cargo test -p zsl-mat --test golden_import -- --ignored --nocapture
