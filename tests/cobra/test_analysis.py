"""Segmentation, classification, tracking, features, events (E11 shape)."""

import math

import numpy as np
import pytest

from repro.errors import VideoError
from repro.cobra.grammar import analyze_video
from repro.cobra.classification import classify_shots, estimate_court_color
from repro.cobra.events import detect_events, detect_netplay, detect_rally
from repro.cobra.features import shape_features
from repro.cobra.segmentation import Shot, detect_boundaries, segment_video
from repro.cobra.tracking import player_mask, track_player
from repro.cobra.video import (COURT_COLORS, ShotSpec, generate_video,
                               tennis_match_script)
from repro.web.ausopen import build_ausopen_site


@pytest.fixture(scope="module")
def match():
    script = tennis_match_script(rng_seed=3, rallies=4,
                                 netplay_rallies=(1, 3),
                                 frames_per_shot=10)
    return generate_video(script, "http://x/match.mpg", seed=3)


class TestSegmentation:
    def test_boundaries_exact(self, match):
        assert detect_boundaries(match.frames) == match.truth.boundaries

    def test_shots_cover_video(self, match):
        shots = segment_video(match.frames)
        assert shots[0].begin == 0
        assert shots[-1].end == match.frame_count - 1
        for left, right in zip(shots, shots[1:]):
            assert right.begin == left.end + 1

    def test_single_shot_video(self):
        video = generate_video([ShotSpec("tennis", 6)], "http://x/v")
        assert segment_video(video.frames) == [Shot(0, 5)]

    def test_empty_input_rejected(self):
        with pytest.raises(VideoError):
            detect_boundaries(np.zeros((0, 4, 4, 3), dtype=np.uint8))


class TestClassification:
    def test_categories_exact(self, match):
        shots = segment_video(match.frames)
        classified = classify_shots(match.frames, shots)
        assert [shot.category for shot in classified] \
            == match.truth.categories

    def test_court_color_estimated_from_mode(self, match):
        shots = segment_video(match.frames)
        estimated = estimate_court_color(match.frames, shots)
        true_color = np.array(match.truth.court_color)
        assert np.abs(np.array(estimated) - true_color).max() <= 32

    @pytest.mark.parametrize("court", sorted(COURT_COLORS))
    def test_all_court_surfaces_without_retuning(self, court):
        """The paper's adaptivity claim: same parameters, any surface."""
        script = tennis_match_script(rng_seed=5, rallies=3,
                                     netplay_rallies=(0,),
                                     frames_per_shot=8)
        video = generate_video(script, f"http://x/{court}.mpg",
                               court=court, seed=5)
        shots = segment_video(video.frames)
        classified = classify_shots(video.frames, shots)
        assert [s.begin for s in classified] == video.truth.boundaries
        assert [s.category for s in classified] == video.truth.categories

    def test_audience_on_the_court_colour_is_no_tennis_shot(self):
        """Seed 400's grass-court ``v3``: its audience mosaic's modal
        colour (a handful of pixels) is the court's; a tennis label sent
        the tracker over the crowd, which reported a false netplay."""
        server, truth = build_ausopen_site(players=48, articles=120,
                                           videos=6, frames_per_shot=8,
                                           seed=400)
        found = {video.key for video in truth.videos
                 if any(event.name == "netplay" for event in analyze_video(
                     server.get(video.media_path).payload).events)}
        assert found == {video.key for video in truth.videos
                         if video.netplay}


class TestTracking:
    def test_player_found_every_frame(self, match):
        shots = segment_video(match.frames)
        court = estimate_court_color(match.frames, shots)
        classified = classify_shots(match.frames, shots, court)
        tennis = [s for s in classified if s.category == "tennis"][0]
        tracked = track_player(match.frames, tennis.begin, tennis.end,
                               court)
        assert len(tracked) == tennis.end - tennis.begin + 1

    def test_tracked_positions_near_truth(self, match):
        shots = segment_video(match.frames)
        court = estimate_court_color(match.frames, shots)
        classified = classify_shots(match.frames, shots, court)
        tennis_shots = [s for s in classified if s.category == "tennis"]
        truth_ranges = match.truth.shot_ranges(match.frame_count)
        for shot in tennis_shots:
            shot_index = truth_ranges.index((shot.begin, shot.end))
            trajectory = match.truth.trajectories[shot_index]
            tracked = track_player(match.frames, shot.begin, shot.end,
                                   court)
            for record in tracked:
                true_x, true_y = trajectory[record.frame_no - shot.begin]
                assert abs(record.y - true_y) < 45.0
                assert abs(record.x - true_x) < 45.0

    def test_mask_excludes_court_and_lines(self, match):
        court = match.truth.court_color
        mask = player_mask(match.frames[0], court)
        # foreground is a small blob, not the court
        assert 0 < mask.sum() < mask.size * 0.2


class TestShapeFeatures:
    def test_rectangle_features(self):
        mask = np.zeros((30, 30), dtype=bool)
        mask[5:20, 10:15] = True          # tall 15x5 rectangle
        features = shape_features(mask, (12, 12), 15, 15)
        assert features.area == 15 * 5
        assert features.bounding_box == (5, 10, 19, 14)
        assert abs(features.center_row - 12.0) < 0.6
        assert abs(features.center_col - 12.0) < 0.6
        # vertical elongation: orientation near +-pi/2, eccentric
        assert abs(abs(features.orientation) - math.pi / 2) < 0.1
        assert features.eccentricity > 0.8

    def test_circle_is_round(self):
        rows, cols = np.ogrid[:40, :40]
        mask = (rows - 20) ** 2 + (cols - 20) ** 2 <= 100
        features = shape_features(mask, (20, 20), 20, 20)
        assert features.eccentricity < 0.2

    def test_empty_window(self):
        mask = np.zeros((10, 10), dtype=bool)
        features = shape_features(mask, (5, 5), 3, 3)
        assert features.area == 0


class TestEvents:
    def _tracked(self, ys, begin=0):
        from repro.cobra.tracking import TrackedFrame
        from repro.cobra.features import ShapeFeatures
        dummy = ShapeFeatures(10, 0.0, 0.0, (0, 0, 1, 1), 0.0, 0.5)
        return [TrackedFrame(begin + i, 320.0, y, dummy)
                for i, y in enumerate(ys)]

    def test_netplay_detected(self):
        event = detect_netplay(self._tracked([300.0, 200.0, 150.0, 140.0]))
        assert event is not None
        assert (event.begin, event.end) == (2, 3)
        assert event.attributes["min_y"] == 140.0

    def test_netplay_absent(self):
        assert detect_netplay(self._tracked([300.0, 280.0])) is None

    def test_baseline_rally(self):
        event = detect_rally(self._tracked([320.0, 330.0, 325.0]))
        assert event is not None and event.name == "baseline_rally"

    def test_rally_broken_by_approach(self):
        assert detect_rally(self._tracked([320.0, 160.0])) is None

    def test_detect_events_combines(self):
        events = detect_events(self._tracked([330.0, 325.0]))
        assert [event.name for event in events] == ["baseline_rally"]

    def test_empty_track(self):
        assert detect_events([]) == []
