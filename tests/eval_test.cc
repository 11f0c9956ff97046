#include <gtest/gtest.h>

#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "eval/detector.h"
#include "eval/runner.h"
#include "eval/table.h"
#include "test_util.h"

namespace caee {
namespace {

eval::SuiteConfig TinySuite() {
  eval::SuiteConfig s;
  s.window = 8;
  s.embed_dim = 6;
  s.cae_layers = 1;
  s.num_models = 2;
  s.epochs_per_model = 1;
  s.rnn_hidden = 8;
  s.rnn_epochs = 1;
  s.ae_epochs = 2;
  s.max_train_windows = 64;
  return s;
}

TEST(DetectorFactoryTest, AllNamesConstruct) {
  std::vector<std::string> names = eval::AllDetectorNames();
  for (const auto& name : eval::CaeEnsembleVariantNames()) {
    names.push_back(name);
  }
  for (const auto& name : names) {
    auto detector = eval::MakeDetector(name, TinySuite());
    ASSERT_TRUE(detector.ok()) << name << ": " << detector.status();
    EXPECT_EQ((*detector)->name(), name);
  }
}

// Every field of an ensemble config, one "name=value" line each, so two
// configs compare as strings and a mismatch names the field.
std::string Fields(const core::EnsembleConfig& c) {
  std::ostringstream out;
  out << "cae.embed_dim=" << c.cae.embed_dim << "\n"
      << "cae.num_layers=" << c.cae.num_layers << "\n"
      << "cae.kernel=" << c.cae.kernel << "\n"
      << "cae.attention=" << static_cast<int>(c.cae.attention) << "\n"
      << "cae.enc_act=" << static_cast<int>(c.cae.enc_act) << "\n"
      << "cae.dec_act=" << static_cast<int>(c.cae.dec_act) << "\n"
      << "cae.recon_act=" << static_cast<int>(c.cae.recon_act) << "\n"
      << "window=" << c.window << "\n"
      << "num_models=" << c.num_models << "\n"
      << "epochs_per_model=" << c.epochs_per_model << "\n"
      << "batch_size=" << c.batch_size << "\n"
      << "lr=" << c.lr << "\n"
      << "lambda=" << c.lambda << "\n"
      << "beta=" << c.beta << "\n"
      << "grad_clip=" << c.grad_clip << "\n"
      << "denoise_std=" << c.denoise_std << "\n"
      << "diversity_cap_ratio=" << c.diversity_cap_ratio << "\n"
      << "diversity_epoch_fraction=" << c.diversity_epoch_fraction << "\n"
      << "diversity_enabled=" << c.diversity_enabled << "\n"
      << "transfer_enabled=" << c.transfer_enabled << "\n"
      << "rescale_enabled=" << c.rescale_enabled << "\n"
      << "embed_obs_act=" << static_cast<int>(c.embed_obs_act) << "\n"
      << "embed_pos_act=" << static_cast<int>(c.embed_pos_act) << "\n"
      << "max_train_windows=" << c.max_train_windows << "\n"
      << "shuffle=" << c.shuffle << "\n"
      << "early_stop_rel_tol=" << c.early_stop_rel_tol << "\n"
      << "num_threads=" << c.num_threads << "\n"
      << "seed=" << c.seed << "\n"
      << "verbose=" << c.verbose << "\n";
  return out.str();
}

// Each ablation variant is CAE-Ensemble's config with one documented
// setting changed (docs/evaluation.md "The paper's tables"), in this order.
TEST(DetectorFactoryTest, EachVariantChangesOnlyItsDocumentedSetting) {
  using Change = void (*)(core::EnsembleConfig*);
  const std::vector<std::pair<std::string, Change>> documented = {
      {"no-attention",
       [](core::EnsembleConfig* c) {
         c->cae.attention = core::AttentionMode::kNone;
       }},
      {"no-diversity",
       [](core::EnsembleConfig* c) { c->diversity_enabled = false; }},
      {"no-transfer",
       [](core::EnsembleConfig* c) { c->transfer_enabled = false; }},
      {"independent",
       [](core::EnsembleConfig* c) {
         c->diversity_enabled = false;
         c->transfer_enabled = false;
       }},
      {"no-rescale",
       [](core::EnsembleConfig* c) { c->rescale_enabled = false; }},
      {"attention-last",
       [](core::EnsembleConfig* c) {
         c->cae.attention = core::AttentionMode::kLastLayer;
       }},
      {"relu-embedding",
       [](core::EnsembleConfig* c) {
         c->embed_obs_act = nn::Activation::kRelu;
         c->embed_pos_act = nn::Activation::kRelu;
       }},
      {"uncapped-diversity",
       [](core::EnsembleConfig* c) { c->diversity_cap_ratio = 0.0f; }},
      {"no-denoise", [](core::EnsembleConfig* c) { c->denoise_std = 0.0f; }},
      {"kernel5", [](core::EnsembleConfig* c) { c->cae.kernel = 5; }},
      {"kernel7", [](core::EnsembleConfig* c) { c->cae.kernel = 7; }},
      {"kernel9", [](core::EnsembleConfig* c) { c->cae.kernel = 9; }},
  };
  const eval::SuiteConfig suite = TinySuite();
  const auto base = eval::CaeDetectorConfig("CAE-Ensemble", suite);
  ASSERT_TRUE(base.ok()) << base.status();
  const auto names = eval::CaeEnsembleVariantNames();
  ASSERT_EQ(names.size(), documented.size());
  for (size_t i = 0; i < documented.size(); ++i) {
    const std::string name = "CAE-Ensemble/" + documented[i].first;
    SCOPED_TRACE(name);
    EXPECT_EQ(names[i], name);
    core::EnsembleConfig expected = *base;
    documented[i].second(&expected);
    EXPECT_NE(Fields(expected), Fields(*base)) << "changes nothing";
    const auto config = eval::CaeDetectorConfig(name, suite);
    ASSERT_TRUE(config.ok()) << config.status();
    EXPECT_EQ(Fields(*config), Fields(expected));
  }
}

TEST(DetectorFactoryTest, UnknownVariantSuffixFails) {
  for (const char* name :
       {"CAE-Ensemble/", "CAE-Ensemble/kernel4", "CAE-Ensemble/No-Attention",
        "CAE-Ensemble/no-attention/no-rescale", "CAE/no-attention",
        "CAE-Ensemble-no-attention"}) {
    SCOPED_TRACE(name);
    EXPECT_EQ(eval::MakeDetector(name, TinySuite()).status().code(),
              StatusCode::kNotFound);
    EXPECT_EQ(eval::CaeDetectorConfig(name, TinySuite()).status().code(),
              StatusCode::kNotFound);
  }
}

TEST(DetectorFactoryTest, UnknownNameFails) {
  auto detector = eval::MakeDetector("DOES-NOT-EXIST", TinySuite());
  EXPECT_FALSE(detector.ok());
  EXPECT_EQ(detector.status().code(), StatusCode::kNotFound);
}

TEST(DetectorFactoryTest, TwelveDetectorsInPaperOrder) {
  auto names = eval::AllDetectorNames();
  ASSERT_EQ(names.size(), 12u);
  EXPECT_EQ(names.front(), "ISF");
  EXPECT_EQ(names.back(), "CAE-Ensemble");
}

TEST(Table2Test, KnownDatasetsHavePaperValues) {
  auto ecg = eval::Table2Hyperparameters("ECG");
  EXPECT_FLOAT_EQ(ecg.beta, 0.5f);
  EXPECT_FLOAT_EQ(ecg.lambda, 2.0f);
  EXPECT_EQ(ecg.window, 16);
  auto smd = eval::Table2Hyperparameters("SMD");
  EXPECT_FLOAT_EQ(smd.beta, 0.2f);
  EXPECT_FLOAT_EQ(smd.lambda, 32.0f);
  EXPECT_EQ(smd.window, 32);
}

TEST(RunnerTest, ProducesCompleteResult) {
  ts::Dataset ds;
  ds.name = "tiny";
  ds.train = testutil::PlantedSeries(200, 2, 1);
  ds.test = testutil::PlantedSeries(120, 2, 2, {60}, 9.0);

  auto detector = eval::MakeDetector("MAS", TinySuite());
  ASSERT_TRUE(detector.ok());
  auto result = eval::RunDetector(detector->get(), ds);
  ASSERT_TRUE(result.ok()) << result.status();
  EXPECT_EQ(result->detector, "MAS");
  EXPECT_EQ(result->dataset, "tiny");
  EXPECT_EQ(result->scores.size(), 120u);
  EXPECT_GE(result->fit_seconds, 0.0);
  EXPECT_GE(result->score_seconds, 0.0);
  EXPECT_GT(result->report.roc_auc, 0.5);  // easy planted outlier
}

TEST(RunnerTest, TestLabelsExtraction) {
  ts::TimeSeries test = testutil::PlantedSeries(50, 2, 3, {10, 20});
  auto labels = eval::TestLabels(test);
  ASSERT_EQ(labels.size(), 50u);
  EXPECT_EQ(labels[10], 1);
  EXPECT_EQ(labels[20], 1);
  EXPECT_EQ(labels[30], 0);
}

TEST(TablePrinterTest, AlignsColumns) {
  eval::TablePrinter table({"Model", "F1"});
  table.AddRow({"ISF", "0.0999"});
  table.AddRow({"CAE-Ensemble", "0.2521"});
  const std::string out = table.ToString();
  EXPECT_NE(out.find("| Model"), std::string::npos);
  EXPECT_NE(out.find("| CAE-Ensemble | 0.2521 |"), std::string::npos);
  // Header separator present.
  EXPECT_NE(out.find("|---"), std::string::npos);
}

TEST(TablePrinterTest, FormatDouble) {
  EXPECT_EQ(eval::FormatDouble(0.25214, 4), "0.2521");
  EXPECT_EQ(eval::FormatDouble(1.0, 2), "1.00");
}

}  // namespace
}  // namespace caee
