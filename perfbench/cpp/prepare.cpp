// One-time preparation: trains the d=128 flagship on the phone-h10 synthetic
// world with fixed seeds and writes the checkpoint plus its SHA-256. The
// benchmark itself only ever loads the committed result.
#include <cstdio>
#include <fstream>
#include <stdexcept>

#include "core/trainer.hpp"
#include "harness.hpp"
#include "trace/synthetic.hpp"
#include "workloads.hpp"

namespace perfbench {

int run_prepare(const std::string& checkpoint_path) {
    cpt::trace::SyntheticWorldConfig wcfg;
    wcfg.population = {600, 0, 0};
    wcfg.hour_of_day = 10;
    wcfg.seed = 1010;
    const cpt::trace::Dataset world = cpt::trace::SyntheticWorldGenerator(wcfg).generate();
    const cpt::core::Tokenizer tokenizer = cpt::core::Tokenizer::fit(world);

    cpt::util::Rng init(17);
    cpt::core::CptGpt model(tokenizer, flagship_config(), init);
    cpt::core::TrainConfig tcfg;
    tcfg.max_epochs = 8;
    tcfg.patience = 8;
    tcfg.window = 128;
    tcfg.w_event = 3.0f;
    tcfg.seed = 1;
    tcfg.verbose = true;
    cpt::core::Trainer trainer(model, tokenizer, tcfg);
    const auto result = trainer.train(world);
    std::printf("trained flagship: %d epochs, %zu steps, %.1f s, final val loss %.4f\n",
                result.epochs_run, result.steps, result.seconds,
                result.val_loss.empty() ? 0.0 : result.val_loss.back());

    model.save_package(checkpoint_path, tokenizer, world.initial_event_distribution());
    const std::string digest = sha256_file(checkpoint_path);
    std::ofstream(checkpoint_path + ".sha256") << digest << "\n";
    std::printf("%s  %s\n", digest.c_str(), checkpoint_path.c_str());
    return 0;
}

}  // namespace perfbench
