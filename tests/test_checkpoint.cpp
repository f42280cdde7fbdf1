#include "io/checkpoint.hpp"

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <map>

#include "core/serial_sim.hpp"
#include "driver/mp_sim.hpp"

namespace hdem {
namespace {

struct TempFile {
  std::string path;
  explicit TempFile(std::string name) : path(std::move(name)) {}
  ~TempFile() { std::filesystem::remove(path); }
};

TEST(Checkpoint, RoundTripsConfigAndParticles) {
  TempFile f("ck_roundtrip.bin");
  SimConfig<2> cfg;
  cfg.box = Vec<2>(2.0, 3.0);
  cfg.bc = BoundaryKind::kWalls;
  cfg.diameter = 0.04;
  cfg.stiffness = 250.0;
  cfg.cutoff_factor = 1.75;
  cfg.dt = 1.25e-4;
  cfg.gravity = Vec<2>(0.0, -9.81);
  cfg.reorder = false;
  cfg.seed = 777;
  std::vector<StateRecord<2>> records = {
      {0, Vec<2>(0.1, 0.2), Vec<2>(1.0, -1.0)},
      {1, Vec<2>(1.5, 2.5), Vec<2>(0.0, 0.5)},
  };
  io::write_checkpoint<2>(f.path, cfg, records);
  const auto ck = io::read_checkpoint<2>(f.path);
  EXPECT_EQ(ck.config.box, cfg.box);
  EXPECT_EQ(ck.config.bc, cfg.bc);
  EXPECT_EQ(ck.config.diameter, cfg.diameter);
  EXPECT_EQ(ck.config.stiffness, cfg.stiffness);
  EXPECT_EQ(ck.config.cutoff_factor, cfg.cutoff_factor);
  EXPECT_EQ(ck.config.dt, cfg.dt);
  EXPECT_EQ(ck.config.gravity, cfg.gravity);
  EXPECT_EQ(ck.config.reorder, cfg.reorder);
  EXPECT_EQ(ck.config.seed, cfg.seed);
  ASSERT_EQ(ck.particles.size(), 2u);
  EXPECT_EQ(ck.particles[1].pos, (Vec<2>(1.5, 2.5)));
  EXPECT_EQ(ck.particles[0].vel, (Vec<2>(1.0, -1.0)));
}

TEST(Checkpoint, ResumedSerialRunContinuesTrajectory) {
  TempFile f("ck_resume.bin");
  SimConfig<2> cfg;
  cfg.box = Vec<2>(1.0);
  cfg.seed = 5;
  cfg.velocity_scale = 0.8;

  // Reference: run 120 steps straight through.
  auto straight = SerialSim<2>::make_random(
      cfg, ElasticSphere{cfg.stiffness, cfg.diameter}, 400);
  straight.run(120);

  // Checkpointed: run 60, snapshot, restore, run 60 more.
  auto first = SerialSim<2>::make_random(
      cfg, ElasticSphere{cfg.stiffness, cfg.diameter}, 400);
  first.run(60);
  const auto snap = io::snapshot(first);
  io::write_checkpoint<2>(f.path, first.config(), snap);

  const auto ck = io::read_checkpoint<2>(f.path);
  const auto init = particles_from_records<2>(ck.particles);
  SerialSim<2> resumed(ck.config, ElasticSphere{ck.config.stiffness,
                                                ck.config.diameter},
                       init);
  resumed.run(60);

  std::map<int, Vec<2>> ref;
  for (std::size_t i = 0; i < straight.store().size(); ++i) {
    Vec<2> p = straight.store().pos(i);
    straight.boundary().wrap(p);
    ref[straight.store().id(i)] = p;
  }
  double max_err = 0.0;
  for (std::size_t i = 0; i < resumed.store().size(); ++i) {
    Vec<2> p = resumed.store().pos(i);
    resumed.boundary().wrap(p);
    max_err = std::max(
        max_err, norm(resumed.boundary().displacement(
                     p, ref.at(resumed.store().id(i)))));
  }
  // The restart re-wraps positions and rebuilds the list at step 60, so
  // summation order differs slightly from the straight-through run.
  EXPECT_LT(max_err, 1e-9);
}

TEST(Checkpoint, MpGatherStateFeedsCheckpoint) {
  TempFile f("ck_mp.bin");
  SimConfig<2> cfg;
  cfg.box = Vec<2>(1.0);
  const auto init = uniform_random_particles(cfg, 300);
  const auto layout = DecompLayout<2>::make(2, 2);
  mp::run(2, [&](mp::Comm& comm) {
    MpSim<2> sim(cfg, layout, comm,
                 ElasticSphere{cfg.stiffness, cfg.diameter}, init);
    sim.run(5);
    auto state = sim.gather_state();
    if (comm.rank() == 0) {
      io::write_checkpoint<2>(f.path, cfg, state);
    }
  });
  const auto ck = io::read_checkpoint<2>(f.path);
  EXPECT_EQ(ck.particles.size(), 300u);
  // Must be restorable.
  EXPECT_NO_THROW(particles_from_records<2>(ck.particles));
}

TEST(Checkpoint, RejectsBadMagic) {
  TempFile f("ck_bad_magic.bin");
  std::ofstream(f.path, std::ios::binary) << "this is not a checkpoint";
  EXPECT_THROW(io::read_checkpoint<2>(f.path), std::runtime_error);
}

TEST(Checkpoint, RejectsDimensionMismatch) {
  TempFile f("ck_dim.bin");
  SimConfig<3> cfg;
  cfg.box = Vec<3>(1.0);
  std::vector<StateRecord<3>> records = {{0, Vec<3>(0.1), Vec<3>(0.0)}};
  io::write_checkpoint<3>(f.path, cfg, records);
  EXPECT_THROW(io::read_checkpoint<2>(f.path), std::runtime_error);
  EXPECT_NO_THROW(io::read_checkpoint<3>(f.path));
}

TEST(Checkpoint, RejectsTruncatedFile) {
  TempFile f("ck_trunc.bin");
  SimConfig<2> cfg;
  cfg.box = Vec<2>(1.0);
  std::vector<StateRecord<2>> records(10);
  for (int i = 0; i < 10; ++i) {
    records[static_cast<std::size_t>(i)] = {i, Vec<2>(0.1, 0.1), Vec<2>{}};
  }
  io::write_checkpoint<2>(f.path, cfg, records);
  // Chop the tail off.
  const auto full = std::filesystem::file_size(f.path);
  std::filesystem::resize_file(f.path, full - 16);
  EXPECT_THROW(io::read_checkpoint<2>(f.path), std::runtime_error);
}

TEST(Checkpoint, RejectsMissingFile) {
  EXPECT_THROW(io::read_checkpoint<2>("does_not_exist.bin"),
               std::runtime_error);
}

TEST(Checkpoint, ParticlesFromRecordsValidatesIds) {
  std::vector<StateRecord<2>> dup = {{0, Vec<2>(0.1, 0.1), Vec<2>{}},
                                     {0, Vec<2>(0.2, 0.2), Vec<2>{}}};
  EXPECT_THROW(particles_from_records<2>(dup), std::invalid_argument);
  std::vector<StateRecord<2>> gap = {{0, Vec<2>(0.1, 0.1), Vec<2>{}},
                                     {2, Vec<2>(0.2, 0.2), Vec<2>{}}};
  EXPECT_THROW(particles_from_records<2>(gap), std::invalid_argument);
  std::vector<StateRecord<2>> ok = {{1, Vec<2>(0.3, 0.3), Vec<2>{}},
                                    {0, Vec<2>(0.1, 0.1), Vec<2>{}}};
  const auto init = particles_from_records<2>(ok);
  ASSERT_EQ(init.size(), 2u);
  EXPECT_EQ(init[1].pos, (Vec<2>(0.3, 0.3)));
}

}  // namespace
}  // namespace hdem
