import pytest

from detmol.entities import (
    BBox, DetBox, EntityChannel, EntitySet, LabelFileError, channel_filename,
    empty_channel, expand, intersection_area, intersects, iou,
    parse_label_file, read_entity_set, write_entity_set, write_label_file,
)


class TestBoxGeometry:
    def test_iou_identical(self):
        a = BBox(0, 0, 10, 10)
        assert iou(a, a) == 1.0

    def test_iou_disjoint(self):
        assert iou(BBox(0, 0, 10, 10), BBox(20, 20, 30, 30)) == 0.0

    def test_iou_half_offset(self):
        # overlap 50, union 150
        a = BBox(0, 0, 10, 10)
        b = BBox(5, 0, 15, 10)
        assert iou(a, b) == pytest.approx(50.0 / 150.0)

    def test_touching_edges_do_not_intersect(self):
        a = BBox(0, 0, 10, 10)
        b = BBox(10, 0, 20, 10)
        assert intersection_area(a, b) == 0.0
        assert not intersects(a, b)

    def test_expand(self):
        grown = expand(BBox(10, 10, 20, 20), 5)
        assert (grown.xmin, grown.ymin, grown.xmax, grown.ymax) == (5, 5, 25, 25)

    def test_expand_rejects_negative(self):
        with pytest.raises(ValueError):
            expand(BBox(0, 0, 10, 10), -1)

    def test_degenerate_box_rejected(self):
        with pytest.raises(ValueError):
            BBox(10, 0, 10, 10)
        with pytest.raises(ValueError):
            BBox(0, 5, 10, 4)

    def test_center_and_area(self):
        box = BBox(0, 0, 10, 20)
        assert box.center == (5.0, 10.0)
        assert box.area == 200.0


class TestLabelFiles:
    def test_parse_plain(self):
        text = "label,xmin,ymin,xmax,ymax\n0,1,2,11,12\n3,5,5,9,9\n"
        ch = parse_label_file(text, "atom")
        assert len(ch) == 2
        assert ch.boxes[0].class_id == 0
        assert ch.boxes[0].box == BBox(1, 2, 11, 12)
        assert ch.boxes[0].score == 1.0
        assert ch.boxes[1].class_id == 3

    def test_parse_scored(self):
        text = "label,xmin,ymin,xmax,ymax,score\n1,0,0,4,4,0.25\n"
        ch = parse_label_file(text, "bond")
        assert ch.boxes[0].score == 0.25

    def test_bad_header(self):
        with pytest.raises(LabelFileError):
            parse_label_file("xmin,ymin,xmax,ymax,label\n", "atom")

    def test_bad_row_reports_line(self):
        text = "label,xmin,ymin,xmax,ymax\n0,1,2,11,12\n0,nope,2,11,12\n"
        with pytest.raises(LabelFileError) as err:
            parse_label_file(text, "atom")
        assert "line 3" in str(err.value)

    def test_unknown_class_rejected(self):
        text = "label,xmin,ymin,xmax,ymax\n99,0,0,4,4\n"
        with pytest.raises(LabelFileError):
            parse_label_file(text, "atom")
        # 99 is no bond class either
        with pytest.raises(LabelFileError):
            parse_label_file(text.replace("99", "7"), "bond")

    def test_score_out_of_range(self):
        text = "label,xmin,ymin,xmax,ymax,score\n0,0,0,4,4,1.5\n"
        with pytest.raises(LabelFileError):
            parse_label_file(text, "atom")

    def test_blank_lines_skipped(self):
        text = "label,xmin,ymin,xmax,ymax\n\n0,0,0,4,4\n\n"
        assert len(parse_label_file(text, "atom")) == 1

    def test_write_omits_score_column_when_unset(self):
        ch = EntityChannel("atom", (DetBox(BBox(0, 0, 4, 4), 0),))
        assert write_label_file(ch).splitlines()[0] == "label,xmin,ymin,xmax,ymax"

    def test_write_keeps_score_column_when_set(self):
        ch = EntityChannel("atom", (DetBox(BBox(0, 0, 4, 4), 0, 0.5),))
        lines = write_label_file(ch).splitlines()
        assert lines[0] == "label,xmin,ymin,xmax,ymax,score"
        assert lines[1] == "0,0,0,4,4,0.5"

    def test_roundtrip(self):
        ch = EntityChannel("bond", (
            DetBox(BBox(0, 0, 4, 4), 2, 0.75),
            DetBox(BBox(1.5, 2.5, 3.5, 4.5), 5, 1.0),
        ))
        again = parse_label_file(write_label_file(ch), "bond")
        assert again == ch

    def test_missing_header(self):
        with pytest.raises(LabelFileError, match="line 1: missing header"):
            parse_label_file("", "atom")

    def test_wrong_field_count(self):
        text = "label,xmin,ymin,xmax,ymax\n0,1,2,11\n"
        with pytest.raises(LabelFileError, match="line 2: expected 5 fields, got 4"):
            parse_label_file(text, "atom")

    def test_channel_unknown_kind(self):
        with pytest.raises(ValueError, match="unknown channel kind: 'ring'"):
            EntityChannel("ring", ())

    def test_channel_class_id_outside_vocabulary(self):
        with pytest.raises(ValueError, match="class id 99 not in atom vocabulary"):
            EntityChannel("atom", (DetBox(BBox(0, 0, 4, 4), 99),))


class TestEntitySetIO:
    def test_roundtrip_directory(self, tmp_path):
        es = EntitySet(
            "m1",
            EntityChannel("atom", (DetBox(BBox(0, 0, 4, 4), 0),)),
            EntityChannel("bond", (DetBox(BBox(0, 0, 8, 8), 1),)),
            empty_channel("charge"),
            empty_channel("stereo"),
        )
        write_entity_set(tmp_path, es)
        assert (tmp_path / "m1" / "atoms.csv").exists()
        assert read_entity_set(tmp_path, "m1") == es

    def test_missing_files_are_empty_channels(self, tmp_path):
        (tmp_path / "m2").mkdir()
        (tmp_path / "m4").write_text("not a folder")
        # an empty folder, no folder at all, and a file where the folder goes
        for image_id in ("m2", "m3", "m4"):
            es = read_entity_set(tmp_path, image_id)
            assert es.image_id == image_id
            for channel in (es.atoms, es.bonds, es.charges, es.stereos):
                assert len(channel) == 0

    def test_unreadable_file_is_a_label_file_error(self, tmp_path):
        # a file that exists but cannot be read is bad data for its image,
        # not a missing channel
        (tmp_path / "m5" / "atoms.csv").mkdir(parents=True)
        with pytest.raises(LabelFileError) as err:
            read_entity_set(tmp_path, "m5")
        assert str(tmp_path / "m5" / "atoms.csv") in str(err.value)

    def test_channel_kind_slots_enforced(self):
        with pytest.raises(ValueError):
            EntitySet("x", empty_channel("bond"), empty_channel("bond"),
                      empty_channel("charge"), empty_channel("stereo"))

    def test_filenames(self):
        assert channel_filename("atom") == "atoms.csv"
        assert channel_filename("stereo") == "stereos.csv"

    @pytest.mark.parametrize("image_id", [
        "..", ".", "", "../escaped", "a/b", "m1/", "{tmp}/abs",
    ])
    def test_image_id_must_be_one_folder_name(self, tmp_path, image_id):
        image_id = image_id.format(tmp=tmp_path)  # absolute
        root = tmp_path / "root"
        root.mkdir()
        es = EntitySet(image_id, empty_channel("atom"), empty_channel("bond"),
                       empty_channel("charge"), empty_channel("stereo"))
        with pytest.raises(LabelFileError):
            write_entity_set(root, es)
        with pytest.raises(LabelFileError):
            read_entity_set(root, image_id)
        assert list(tmp_path.iterdir()) == [root]
        assert list(root.iterdir()) == []
