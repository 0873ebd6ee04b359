#ifndef YUKTA_FLEET_ARTIFACTS_H_
#define YUKTA_FLEET_ARTIFACTS_H_

/**
 * @file
 * Shared artifact recipe for fleet runs. A fleet instantiates the
 * same controller design on every board, so the design flow runs
 * once; the reduced bundle (single D-K iteration, coarse mu grid --
 * the golden-trace recipe) keeps CLI, bench, and test start-up to
 * seconds while exercising the identical runtime stack.
 */

#include "core/schemes.h"

namespace yukta::fleet {

/**
 * Builds (or loads from the on-disk cache) the reduced artifact
 * bundle fleet runs execute against. Deterministic and bit-stable;
 * the golden-trace suite (tests/golden/scenario.h) runs against the
 * same bundle.
 */
core::Artifacts fleetArtifacts();

}  // namespace yukta::fleet

#endif  // YUKTA_FLEET_ARTIFACTS_H_
