import os
import stat

import pytest

from robocal import fileio
from robocal.errors import FileFormatError
from robocal.geometry import Pose


@pytest.mark.parametrize("umask", [0o022, 0o077], ids=oct)
def test_written_files_get_open_mode_under_umask(umask, tmp_path):
    old = os.umask(umask)
    try:
        fileio.save_pose_list(tmp_path / "poses.txt", [Pose.identity()])
    finally:
        os.umask(old)
    mode = stat.S_IMODE(os.stat(tmp_path / "poses.txt").st_mode)
    assert mode == 0o666 & ~umask
    assert os.listdir(tmp_path) == ["poses.txt"]


def test_non_utf8_byte_cites_its_line(tmp_path):
    path = tmp_path / "poses.txt"
    path.write_bytes(b"units=mm\nconvention=p->R*p+t\n1 0 0 0 0 0 \xe9\n")
    with pytest.raises(FileFormatError,
                       match=r"poses\.txt:3: not UTF-8 text: byte 0xe9"):
        fileio.load_pose_list(path)
